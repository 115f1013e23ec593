"""Network layers with hand-written forward and backward passes.

Linear and embedding layers are quantization-capable: given a grid max
``m`` they fake-quantize their weights (and, for linear, their inputs) onto
the symmetric grid [-m, m] during the forward pass and back-propagate
through the rounding with the straight-through estimator; with ``m=None``
they are plain FP32. Softmax, layer norm and GELU are plain FP32
and have no quantized variants.
"""

from __future__ import annotations

import math

import numpy as np

from .quant import (
    EmaTracker,
    activation_scale,
    ema_update,
    fake_quantize,
    max_quant_value,
    weight_scale,
)
from .tensor import ShapeError, gemm_f32

LAYER_NORM_EPS = 1e-12

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


class Parameter:
    """A trainable FP32 array paired with its gradient accumulator."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float32)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad.fill(0.0)


# ---------------------------------------------------------------------------
# Stateless FP32 ops (kept at full precision, never fake-quantized)
# ---------------------------------------------------------------------------


# The forward ops below work in place on one fresh buffer where they can,
# so that a batch costs one allocation per result rather than one per step.
# The order of their IEEE operations is part of the result: each gives the
# bytes of its plain expression (tests/test_reference_ops.py).


def softmax_forward(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, max-subtracted for stability."""
    e = np.subtract(x, np.max(x, axis=-1, keepdims=True))
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def softmax_backward(upstream: np.ndarray, probs: np.ndarray) -> np.ndarray:
    dot = np.sum(upstream * probs, axis=-1, keepdims=True)
    return probs * (upstream - dot)


def gelu_forward(x: np.ndarray) -> np.ndarray:
    """GELU, tanh approximation: 0.5 x (1 + tanh(C (x + A x^3)))."""
    x = np.asarray(x, dtype=np.float32)
    u = np.multiply(x, _GELU_A, out=np.empty_like(x))
    u *= x
    u *= x
    u += x
    u *= _GELU_C
    np.tanh(u, out=u)
    u += 1.0
    y = np.multiply(x, 0.5, out=np.empty_like(x))
    y *= u
    return y


def gelu_backward(upstream: np.ndarray, x: np.ndarray) -> np.ndarray:
    t = np.tanh(_GELU_C * (x + _GELU_A * x * x * x))
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
    return upstream * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


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


class QuantizedLinear:
    """FC layer that fake-quantizes its input and weight onto [-m, m].

    The FP32 master weight is the only thing the optimizer ever touches;
    fake quantization produces fresh arrays each forward. The bias is added
    in FP32, untouched by training-time quantization. With ``m=None`` this
    is a plain FP32 linear layer.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        rng: np.random.Generator,
        m: int | None = None,
        ema_decay: float = 0.9,
    ):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(out_features, in_features)))
        self.bias = Parameter(np.zeros(out_features))
        self.m = m
        self.input_tracker = EmaTracker(decay=ema_decay)
        self._cache = None

    def named_params(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def forward(self, x, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if x.shape[-1] != self.in_features:
            raise ShapeError(f"expected last dim {self.in_features}, got {x.shape}")
        lead = x.shape[:-1]
        x2 = x.reshape(-1, self.in_features)

        m = self.m
        if m is not None:
            if training:
                # the batch's own max joins the EMA before it is quantized
                ema_update(self.input_tracker, float(np.max(np.abs(x2))))
            s_x = activation_scale(self.input_tracker, m)
            s_w = weight_scale(self.weight.value, m)
            x_used = fake_quantize(x2, s_x, m)
            w_used = fake_quantize(self.weight.value, s_w, m)
            if not training:
                # eval predicts what the integer runtime will produce, so the
                # bias is rounded to its Int32 grid like the frozen artifact's
                s_b = np.float32(s_x) * np.float32(s_w)
                b_used = fake_quantize(self.bias.value, s_b, max_quant_value(32))
            else:
                b_used = self.bias.value
        else:
            x_used = x2
            w_used = self.weight.value
            b_used = self.bias.value

        y = gemm_f32(x_used, w_used.T) + b_used
        if training:
            self._cache = (x_used, w_used, lead)
        return y.reshape(lead + (self.out_features,))

    def backward(self, upstream) -> np.ndarray:
        """STE backward: gradients flow as if fake quantization were identity.

        grad_x uses the fake-quantized weight, grad_weight the fake-quantized
        input (both cached from forward); grad_bias is the upstream column sum.
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward(training=True)")
        x_used, w_used, lead = self._cache
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
    """

    def __init__(
        self,
        num_entries: int,
        dim: int,
        *,
        rng: np.random.Generator,
        m: int | None = None,
    ):
        self.num_entries = num_entries
        self.dim = dim
        self.table = Parameter(rng.normal(0.0, 0.02, size=(num_entries, dim)))
        self.m = m
        self._cache = None

    def named_params(self):
        return [("table", self.table)]

    def forward(self, ids, training: bool = False) -> np.ndarray:
        ids = embedding_ids(ids, self.num_entries)
        m = self.m
        if m is not None:
            table_used = fake_quantize(
                self.table.value, weight_scale(self.table.value, m), m
            )
        else:
            table_used = self.table.value
        if training:
            self._cache = ids
        return table_used[ids]

    def backward(self, upstream) -> None:
        """Scatter upstream gradients into the FP32 table (STE through rows)."""
        if self._cache is None:
            raise RuntimeError("backward called before forward(training=True)")
        ids = self._cache
        up = np.asarray(upstream, dtype=np.float32)
        np.add.at(self.table.grad, ids.reshape(-1), up.reshape(-1, self.dim))


class LayerNorm:
    def __init__(self, dim: int):
        self.dim = dim
        self.gain = Parameter(np.ones(dim))
        self.bias = Parameter(np.zeros(dim))
        self._cache = None

    def named_params(self):
        return [("gain", self.gain), ("bias", self.bias)]

    def forward(self, x, training: bool = False) -> np.ndarray:
        y, cache = layer_norm_forward(x, self.gain.value, self.bias.value)
        if training:
            self._cache = cache
        return y

    def backward(self, upstream) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward(training=True)")
        grad_x, grad_gain, grad_bias = layer_norm_backward(
            upstream, self.gain.value, self._cache
        )
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
    in every execution mode. Returns (context, probs).
    """
    qh = split_heads(q, num_heads)
    kh = split_heads(k, num_heads)
    vh = split_heads(v, num_heads)
    inv = 1.0 / math.sqrt(qh.shape[-1])
    scores = np.matmul(qh, kh.transpose(0, 1, 3, 2)) * inv
    probs = softmax_forward(scores)
    ctx = np.matmul(probs, vh)
    return merge_heads(ctx), probs


class _Container:
    """A layer made of sublayers; its parameters are theirs, in the order the
    sublayers were assigned, prefixed by the attribute name."""

    def named_params(self):
        return [(f"{name}.{p}", param) for name, layer in vars(self).items()
                if hasattr(layer, "named_params") for p, param in layer.named_params()]


class MultiHeadAttention(_Container):
    """Self-attention with quantization-capable q/k/v/output projections."""

    def __init__(self, dim, num_heads, *, rng, m=None, ema_decay=0.9):
        if dim % num_heads != 0:
            raise ShapeError(f"dim {dim} not divisible by {num_heads} heads")
        self.dim = dim
        self.num_heads = num_heads
        kw = dict(rng=rng, m=m, ema_decay=ema_decay)
        self.q_proj = QuantizedLinear(dim, dim, **kw)
        self.k_proj = QuantizedLinear(dim, dim, **kw)
        self.v_proj = QuantizedLinear(dim, dim, **kw)
        self.out_proj = QuantizedLinear(dim, dim, **kw)
        self._cache = None

    def forward(self, x, training: bool = False) -> np.ndarray:
        q = self.q_proj.forward(x, training)
        k = self.k_proj.forward(x, training)
        v = self.v_proj.forward(x, training)
        ctx, probs = attention_mix(q, k, v, self.num_heads)
        if training:
            self._cache = (q, k, v, probs)
        return self.out_proj.forward(ctx, training)

    def backward(self, upstream) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward(training=True)")
        q, k, v, probs = self._cache
        q, k, v = (split_heads(t, self.num_heads) for t in (q, k, v))
        inv = 1.0 / math.sqrt(q.shape[-1])
        d_ctx = split_heads(self.out_proj.backward(upstream), self.num_heads)
        d_probs = np.matmul(d_ctx, v.transpose(0, 1, 3, 2))
        d_v = np.matmul(probs.transpose(0, 1, 3, 2), d_ctx)
        d_scores = softmax_backward(d_probs, probs)
        d_q = np.matmul(d_scores, k) * inv
        d_k = np.matmul(d_scores.transpose(0, 1, 3, 2), q) * inv
        grad_x = self.q_proj.backward(merge_heads(d_q))
        grad_x = grad_x + self.k_proj.backward(merge_heads(d_k))
        grad_x = grad_x + self.v_proj.backward(merge_heads(d_v))
        return grad_x


class EncoderBlock(_Container):
    """Post-norm transformer encoder block: attention and GELU feed-forward."""

    def __init__(self, dim, num_heads, ffn_dim, *, rng, m=None, ema_decay=0.9):
        kw = dict(rng=rng, m=m, ema_decay=ema_decay)
        self.attn = MultiHeadAttention(dim, num_heads, **kw)
        self.norm_attn = LayerNorm(dim)
        self.fc_expand = QuantizedLinear(dim, ffn_dim, **kw)
        self.fc_reduce = QuantizedLinear(ffn_dim, dim, **kw)
        self.norm_ffn = LayerNorm(dim)
        self._ffn_pre = None

    def forward(self, x, training: bool = False) -> np.ndarray:
        h = self.norm_attn.forward(x + self.attn.forward(x, training), training)
        pre = self.fc_expand.forward(h, training)
        f = self.fc_reduce.forward(gelu_forward(pre), training)
        if training:
            self._ffn_pre = pre
        return self.norm_ffn.forward(h + f, training)

    def backward(self, upstream) -> np.ndarray:
        if self._ffn_pre is None:
            raise RuntimeError("backward called before forward(training=True)")
        d_sum = self.norm_ffn.backward(upstream)
        d_gelu = self.fc_reduce.backward(d_sum)
        d_pre = gelu_backward(d_gelu, self._ffn_pre)
        d_h = d_sum + self.fc_expand.backward(d_pre)
        d_res = self.norm_attn.backward(d_h)
        return d_res + self.attn.backward(d_res)
