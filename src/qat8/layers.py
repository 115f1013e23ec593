"""Network layers with hand-written forward and backward passes.

Linear and embedding layers are quantization-capable: given a grid max
``m`` they fake-quantize their weights (and, for linear, their inputs) onto
the symmetric grid [-m, m] in the training forward pass and back-propagate
through the rounding with the straight-through estimator; with ``m=None``
they are plain FP32. A quantizing linear layer runs in training only: its
model evaluates by running the Int8 layers export builds from it. The
embedding looks its rows up in the Int8 table export builds, in training
and eval alike. Softmax, layer norm and GELU are plain FP32 and have no
quantized variants; the integer models hold the same :class:`LayerNorm`.

A leaf layer takes its tensors and reads its sizes from their shapes; the
attention and encoder-block containers take their leaves. Each backward
reads what its training forward kept through :func:`kept_for_backward`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quant import (EmaTracker, activation_scale, ema_update, fake_quantize, max_abs, quantize,
                    round_onto_grid, weight_scale)
from .tensor import ShapeError, gemm_f32, gemm_grid

LAYER_NORM_EPS = 1e-12
INT32_MAX = (1 << 31) - 1

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


class Parameter:
    """A trainable FP32 array paired with its gradient accumulator."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float32)
        # np.zeros, not zeros_like: a third of the cost, and every load builds many
        self.grad = np.zeros(self.value.shape, np.float32)

    def zero_grad(self):
        self.grad.fill(0.0)


# ---------------------------------------------------------------------------
# Stateless FP32 ops (kept at full precision, never fake-quantized)
# ---------------------------------------------------------------------------


# The forward ops below work in place on one fresh buffer where they can,
# so that a batch costs one allocation per result rather than one per step.
# Given ``out``, as a ufunc is, they write there, even if it is their input:
# a caller passes only a buffer it owns and reads no more. By default they
# never write their input. The order of their IEEE operations is part of
# the result: each gives the bytes of its plain expression
# (tests/test_reference_ops.py).


def _row_max(x: np.ndarray) -> np.ndarray:
    """np.max(x, axis=-1, keepdims=True) as a halving tree of np.maximum that
    folds an odd tail into slot 0: exact in any order, and faster on short rows."""
    if x.shape[-1:] < (2,):  # a scalar, or nothing to halve
        return np.max(x, axis=-1, keepdims=True)
    while (n := x.shape[-1]) > 1:
        top = np.maximum(x[..., :n // 2], x[..., n // 2:n - n % 2])
        if n % 2:
            np.maximum(top[..., :1], x[..., -1:], out=top[..., :1])
        x = top
    return x


def softmax_forward(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, max-subtracted for stability, written
    into ``out`` (which may be ``x``) or a fresh array."""
    e = np.subtract(x, _row_max(x), out=out)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def softmax_backward(upstream: np.ndarray, probs: np.ndarray) -> np.ndarray:
    g = upstream * probs
    np.subtract(upstream, np.sum(g, axis=-1, keepdims=True), out=g)
    g *= probs
    return g


# Rows (size // last dim) per block of an elementwise or exact eval step on
# a larger input: GELU, and the dynamic FC's rounding and GEMM. Each block's
# scratch is one block's size, whatever the batch.
ROW_BLOCK = 1024


def gelu_forward(x: np.ndarray, keep_tanh: bool = False, out: np.ndarray | None = None):
    """GELU, tanh approximation: 0.5 x (1 + tanh(C (x + A x^3))), written
    into ``out`` (which may be ``x``) or a fresh array.

    With ``keep_tanh`` it returns (output, tanh) for :func:`gelu_backward`,
    at the cost of one more buffer; otherwise just the output. Without it, an
    input of more than ``ROW_BLOCK`` rows runs in blocks of that many rows,
    each with a scratch of one block's size: GELU is elementwise, so the
    bytes are those of the whole input.
    """
    x = np.asarray(x, dtype=np.float32)
    n = x.shape[-1] if x.ndim else 1
    if not keep_tanh and x.size > ROW_BLOCK * n and (out is None or out.flags.c_contiguous):
        y = np.empty(x.shape, np.float32) if out is None else out
        x_rows, y_rows = x.reshape(-1, n), y.reshape(-1, n)  # y_rows is a view of y
        for i in range(0, len(x_rows), ROW_BLOCK):
            gelu_forward(x_rows[i:i + ROW_BLOCK], out=y_rows[i:i + ROW_BLOCK])
        return y
    u = np.multiply(x, _GELU_A, out=np.empty_like(x))
    u *= x
    u *= x
    u += x
    u *= _GELU_C
    t = np.tanh(u, out=u)
    u = np.add(t, 1.0, out=None if keep_tanh else t)
    y = np.multiply(x, 0.5, out=np.empty_like(x) if out is None else out)
    y *= u
    return (y, t) if keep_tanh else y


def gelu_backward(upstream: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """upstream * GELU'(x), given the tanh ``t`` that the forward kept:
    upstream * (0.5 (1 + t) + 0.5 x (1 - t^2) C (1 + 3 A x^2))."""
    du = np.multiply(x, 3.0 * _GELU_A)
    du *= x
    du += 1.0
    du *= _GELU_C
    dtanh = np.multiply(t, t)
    np.subtract(1.0, dtanh, out=dtanh)
    grad = np.multiply(x, 0.5)
    grad *= dtanh
    grad *= du
    head = np.add(t, 1.0, out=dtanh)
    head *= 0.5
    grad += head
    grad *= upstream
    return grad


def layer_norm_forward(x, gain, bias):
    """Normalize over the last axis with learned gain/bias.

    Returns (output, cache); pass the cache to :func:`layer_norm_backward`.
    The output has the dtype of ``x``, which ``gain`` and ``bias`` share.
    """
    mu = np.mean(x, axis=-1, keepdims=True)
    xhat = np.subtract(x, mu)
    y = np.multiply(xhat, xhat)
    var = np.mean(y, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    np.multiply(gain, xhat, out=y)
    y += bias
    return y, (xhat, inv)


def layer_norm_backward(upstream, gain, cache):
    """Returns (grad_x, grad_gain, grad_bias)."""
    xhat, inv = cache
    n = xhat.shape[-1]
    lead_axes = tuple(range(upstream.ndim - 1))
    grad_gain = np.sum(upstream * xhat, axis=lead_axes)
    grad_bias = np.sum(upstream, axis=lead_axes)
    dxhat = upstream * gain
    grad_x = (inv / n) * (
        n * dxhat
        - np.sum(dxhat, axis=-1, keepdims=True)
        - xhat * np.sum(dxhat * xhat, axis=-1, keepdims=True)
    )
    return grad_x, grad_gain, grad_bias


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


def embedding_ids(ids, num_entries: int) -> np.ndarray:
    """The ids as an integer array, each in [0, num_entries)."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise TypeError(f"embedding ids must be integers, got {ids.dtype}")
    if ids.size and (ids.min() < 0 or ids.max() >= num_entries):
        raise IndexError(f"embedding ids out of range [0, {num_entries})")
    return ids


def linear_rows(x, n_in: int):
    """x as FP32 rows of n_in features, and the leading shape it had."""
    x = np.asarray(x, dtype=np.float32)
    if x.shape[-1] != n_in:
        raise ShapeError(f"expected last dim {n_in}, got {x.shape}")
    return x.reshape(-1, n_in), x.shape[:-1]


class ExportError(RuntimeError):
    """The model cannot be exported to integer form."""


BIAS_WRAP = ("Int32 bias too large: max|bias_q| + K*m^2 exceeds 2**31 - 1, "
             "so the accumulator could wrap")


@dataclass
class QuantizedLinearFrozen:
    """FC layer frozen to Int8 weight, Int32 bias, and fixed scales."""

    weight_q: np.ndarray   # int8, [out, in]
    weight_scale: np.float32
    input_scale: np.float32
    bias_q: np.ndarray     # int32, [out]
    m: int = 127           # the grid is [-m, m]

    @property
    def bias_scale(self) -> np.float32:
        return np.float32(self.input_scale) * np.float32(self.weight_scale)

    def accumulator_headroom(self) -> int:
        """The largest max|bias_q| the Int32 accumulator takes on every input.

        Inputs and weights lie on the grid [-m, m], so |x_q . w_q| <= K m**2
        for inner dimension K, and ``acc = x_q . w_q + bias_q`` fits in Int32
        for every input exactly when max|bias_q| + K m**2 <= 2**31 - 1.
        """
        return INT32_MAX - self.weight_q.shape[1] * self.m ** 2

    def forward(self, x, training: bool = False) -> np.ndarray:
        return int8_linear_infer(self, x)


def int8_linear_infer(layer: QuantizedLinearFrozen, x) -> np.ndarray:
    """Quantize the input with the frozen scale, run Int8 GEMM into the
    Int32 bias, then dequantize the accumulator by input_scale * weight_scale.

    The input's Int8 grid stays in the floats it is rounded into, and the
    exact GEMM takes it as it is. One ufunc then adds the bias in Int32
    and rounds the sum to FP32, in the product's own buffer when the GEMM
    ran in float32: the bits of ``gemm_i8_i32(quantize(x), w) + bias_q``
    cast to FP32, without its full-size int8 and int32 copies.
    """
    x2, lead = linear_rows(x, layer.weight_q.shape[1])
    with np.errstate(over="ignore"):  # a product past float32 saturates, as in quantize
        x_q = round_onto_grid(x2, np.float32(layer.input_scale), layer.m)
    acc = gemm_grid(x_q, layer.weight_q.T)
    y = acc if acc.dtype == np.float32 else np.empty(acc.shape, np.float32)
    np.add(acc, layer.bias_q, out=y, dtype=np.int32, casting="unsafe")
    y /= layer.bias_scale
    return y.reshape(lead + (layer.weight_q.shape[0],))


def peak(q) -> int:
    """max |q| of an integer array, exact even at its dtype's minimum."""
    return max(int(q.max()), -int(q.min()))


def over_limit(arrays) -> list[str]:
    """The names of the integer arrays whose max|value| exceeds their limit,
    given (name, array, limit) triples, in their order. One pass over all
    the arrays against the tightest limit settles the usual case at a
    fraction of the cost of one pass per array."""
    arrays = list(arrays)
    if not arrays:
        return []
    tightest = min(limit for _, _, limit in arrays)
    if peak(np.concatenate([q.ravel() for _, q, _ in arrays])) <= tightest:
        return []
    return [name for name, q, limit in arrays if peak(q) > limit]


def kept_for_backward(cache):
    """What a training forward kept for backward; it raises if none ran."""
    if cache is None:
        raise RuntimeError("backward called before forward(training=True)")
    return cache


def freeze_linear(layer, m: int) -> QuantizedLinearFrozen:
    """The Int8 layer of a quantization-aware FC layer: its weight on the
    weight scale's grid, its input scale frozen from the EMA tracker, and its
    bias on the Int32 grid of their product."""
    w = layer.weight.value
    s_x = activation_scale(layer.input_tracker, m)
    s_w = weight_scale(w, m)
    bias_scale = np.float32(s_x) * np.float32(s_w)
    return QuantizedLinearFrozen(
        weight_q=quantize(w, s_w, m),
        weight_scale=s_w,
        input_scale=s_x,
        bias_q=quantize(layer.bias.value, bias_scale, INT32_MAX),
        m=m,
    )


@dataclass
class QuantizedEmbeddingFrozen:
    """Int8 embedding table; rows are dequantized by the table scale on lookup."""

    table_q: np.ndarray    # int8, [entries, dim]
    scale: np.float32

    def lookup(self, ids) -> np.ndarray:
        ids = embedding_ids(ids, self.table_q.shape[0])
        return self.table_q[ids].astype(np.float32) / np.float32(self.scale)

    def forward(self, ids, training: bool = False) -> np.ndarray:
        return self.lookup(ids)


def freeze_embedding(emb, m: int) -> QuantizedEmbeddingFrozen:
    """The Int8 table of a quantization-aware embedding, on its weight scale's grid."""
    scale = weight_scale(emb.table.value, m)
    return QuantizedEmbeddingFrozen(table_q=quantize(emb.table.value, scale, m), scale=scale)


class QuantizedLinear:
    """FC layer that fake-quantizes its input and weight onto [-m, m].

    The FP32 master weight is the only thing the optimizer ever touches;
    fake quantization produces fresh arrays each training forward, and the
    bias is added in FP32. A quantizing layer has no eval pass: its model
    evaluates the layer :func:`freeze_linear` builds from it, as export does.
    With ``m=None`` this is a plain FP32 linear layer.
    """

    def __init__(self, weight, bias, *, m: int | None = None,
                 input_tracker: EmaTracker | None = None):
        self.weight = Parameter(weight)
        self.bias = Parameter(bias)
        self.out_features, self.in_features = self.weight.value.shape
        self.m = m
        self.input_tracker = EmaTracker() if input_tracker is None else input_tracker
        self._cache = None

    def named_params(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def forward(self, x, training: bool = False) -> np.ndarray:
        m = self.m
        if m is not None and not training:
            raise RuntimeError("quantizing FC layers run training only")
        x2, lead = linear_rows(x, self.in_features)
        if m is not None:
            # the batch's own max joins the EMA before it is quantized
            ema_update(self.input_tracker, max_abs(x2))
            s_x = activation_scale(self.input_tracker, m)
            s_w = weight_scale(self.weight.value, m)
            x_used = fake_quantize(x2, s_x, m)
            w_used = fake_quantize(self.weight.value, s_w, m)
        else:
            x_used = x2
            w_used = self.weight.value

        y = gemm_f32(x_used, w_used.T)
        y += self.bias.value
        if training:
            self._cache = (x_used, w_used, lead)
        return y.reshape(lead + (self.out_features,))

    def backward(self, upstream) -> np.ndarray:
        """STE backward: gradients flow as if fake quantization were identity.

        grad_x uses the fake-quantized weight, grad_weight the fake-quantized
        input (both cached from forward); grad_bias is the upstream column sum.
        """
        x_used, w_used, lead = kept_for_backward(self._cache)
        up2 = np.asarray(upstream, dtype=np.float32).reshape(-1, self.out_features)
        grad_x = gemm_f32(up2, w_used)
        self.weight.grad += gemm_f32(up2.T, x_used)
        self.bias.grad += up2.sum(axis=0)
        return grad_x.reshape(lead + (self.in_features,))


class QuantizedEmbedding:
    """Lookup table returning rows fake-quantized onto [-m, m], or FP32 rows
    with ``m=None``.

    The table is quantized with its own weight scale (max |table|); there is
    no activation tracker because the rows are weights, not activations.
    Training and eval both look the rows up in the Int8 table
    :func:`freeze_embedding` builds, as export does: dequantized, its rows
    are the fake-quantized table's, bit for bit.
    """

    def __init__(self, table, *, m: int | None = None):
        self.table = Parameter(table)
        self.num_entries, self.dim = self.table.value.shape
        self.m = m
        self._cache = None

    def named_params(self):
        return [("table", self.table)]

    def forward(self, ids, training: bool = False) -> np.ndarray:
        if training:
            self._cache = ids = embedding_ids(ids, self.num_entries)
        if self.m is None:
            return self.table.value[embedding_ids(ids, self.num_entries)]
        return freeze_embedding(self, self.m).forward(ids)  # the lookup checks the ids

    def backward(self, upstream) -> None:
        """Scatter upstream gradients into the FP32 table (STE through rows)."""
        ids = kept_for_backward(self._cache)
        up = np.asarray(upstream, dtype=np.float32)
        np.add.at(self.table.grad, ids.reshape(-1), up.reshape(-1, self.dim))


class LayerNorm:
    def __init__(self, gain, bias):
        self.gain = Parameter(gain)
        self.bias = Parameter(bias)
        self._cache = None

    def named_params(self):
        return [("gain", self.gain), ("bias", self.bias)]

    def forward(self, x, training: bool = False) -> np.ndarray:
        y, cache = layer_norm_forward(x, self.gain.value, self.bias.value)
        if training:
            self._cache = cache
        return y

    def backward(self, upstream) -> np.ndarray:
        grad_x, grad_gain, grad_bias = layer_norm_backward(
            upstream, self.gain.value, kept_for_backward(self._cache))
        self.gain.grad += grad_gain
        self.bias.grad += grad_bias
        return grad_x


def split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    """(batch, seq, dim) -> (batch, heads, seq, dim // heads)."""
    b, t, d = x.shape
    return x.reshape(b, t, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """(batch, heads, seq, head_dim) -> (batch, seq, dim)."""
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def attention_mix(q, k, v, num_heads: int):
    """Scaled dot-product attention over projected q/k/v, forward only.

    The score (q @ k^T) and context (probs @ v) products are
    activation-activation matmuls with no weights attached; they stay FP32
    in every execution mode. Returns (context, probs), two fresh arrays; the
    probs are the scores' own buffer, scaled and softmaxed in place.
    """
    qh = split_heads(q, num_heads)
    kh = split_heads(k, num_heads)
    vh = split_heads(v, num_heads)
    inv = 1.0 / math.sqrt(qh.shape[-1])
    scores = np.matmul(qh, kh.transpose(0, 1, 3, 2))
    scores *= inv
    probs = softmax_forward(scores, out=scores)
    ctx = np.matmul(probs, vh)
    return merge_heads(ctx), probs


class MultiHeadAttention:
    """Self-attention over q/k/v/output projections: any linear layers, such
    as quantization-capable ones or the Int8 ones of an integer model."""

    def __init__(self, num_heads, q_proj, k_proj, v_proj, out_proj):
        self.num_heads = num_heads
        self.q_proj = q_proj
        self.k_proj = k_proj
        self.v_proj = v_proj
        self.out_proj = out_proj
        self._cache = None

    def forward(self, x, training: bool = False, rows=slice(None)) -> np.ndarray:
        """Attention over every position of ``x``; the output projection runs
        on the positions ``rows`` selects (on the sequence axis) only."""
        q = self.q_proj.forward(x, training)
        k = self.k_proj.forward(x, training)
        v = self.v_proj.forward(x, training)
        ctx, probs = attention_mix(q, k, v, self.num_heads)
        if training:
            self._cache = (q, k, v, probs)
        # in eval nothing keeps them: free them before the next FC runs
        del q, k, v, probs
        return self.out_proj.forward(ctx[:, rows], training)

    def backward(self, upstream) -> np.ndarray:
        q, k, v, probs = kept_for_backward(self._cache)
        q, k, v = (split_heads(t, self.num_heads) for t in (q, k, v))
        inv = 1.0 / math.sqrt(q.shape[-1])
        d_ctx = split_heads(self.out_proj.backward(upstream), self.num_heads)
        d_probs = np.matmul(d_ctx, v.transpose(0, 1, 3, 2))
        d_v = np.matmul(probs.transpose(0, 1, 3, 2), d_ctx)
        d_scores = softmax_backward(d_probs, probs)
        d_q, d_k = np.matmul(d_scores, k), np.matmul(d_scores.transpose(0, 1, 3, 2), q)
        d_q *= inv
        d_k *= inv
        grad_x = self.q_proj.backward(merge_heads(d_q))
        grad_x = grad_x + self.k_proj.backward(merge_heads(d_k))
        grad_x = grad_x + self.v_proj.backward(merge_heads(d_v))
        return grad_x


class EncoderBlock:
    """Post-norm transformer encoder block: attention and GELU feed-forward."""

    def __init__(self, attn, norm_attn, fc_expand, fc_reduce, norm_ffn):
        self.attn = attn
        self.norm_attn = norm_attn
        self.fc_expand = fc_expand
        self.fc_reduce = fc_reduce
        self.norm_ffn = norm_ffn
        self._ffn_pre = None

    def forward(self, x, training: bool = False, rows=slice(None)) -> np.ndarray:
        """The block's output at the positions ``rows`` selects; attention
        still reads every position."""
        h = self.attn.forward(x, training, rows)
        h += x[:, rows]  # a residual add writes into the fresh output of the layer
        h = self.norm_attn.forward(h, training)
        pre = self.fc_expand.forward(h, training)
        if training:
            act, t = gelu_forward(pre, keep_tanh=True)
            self._ffn_pre = pre, t
        else:
            act = gelu_forward(pre, out=pre)  # nothing reads pre after GELU
        y = self.fc_reduce.forward(act, training)
        y += h
        return self.norm_ffn.forward(y, training)

    def backward(self, upstream) -> np.ndarray:
        ffn_pre, ffn_tanh = kept_for_backward(self._ffn_pre)
        d_sum = self.norm_ffn.backward(upstream)
        d_gelu = self.fc_reduce.backward(d_sum)
        d_pre = gelu_backward(d_gelu, ffn_pre, ffn_tanh)
        d_h = d_sum + self.fc_expand.backward(d_pre)
        d_res = self.norm_attn.backward(d_h)
        return d_res + self.attn.backward(d_res)
