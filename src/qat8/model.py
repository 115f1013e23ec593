"""Small transformer encoder classifier: one tree of named layers and one
forward pass for every kind of model.

In a training model every FC and embedding layer can fake-quantize;
softmax, layer norm and GELU run in FP32 only. With quantization disabled
the model is an ordinary FP32 transformer, bit for bit. The integer models
of :mod:`qat8.runtime` put Int8 layers in the same tree, converted layer by
layer by :func:`convert_layers`. A QAT model evaluates by running its Int8
twin, the model export builds from it, so the simulation gives the exported
model's bits. The classifier reads the first token only, so eval runs the
last block past attention on that token alone; training, and the dynamic
model, whose activation scales read every position, run it on all of them.
Eval on frozen Int8 FCs (the exported model, and a QAT model through its
twin) runs a batch in chunks of ``EVAL_CHUNK`` sequences: its rows are exact
and independent of the batch. FP32 GEMM bits depend on the row count, and a
dynamic scale spans the batch, so the FP32 and dynamic models run their
GEMMs on it whole; only their GELU and the dynamic FC's rounding and exact
GEMM, which give the same bits at any row count, run in blocks of
``layers.ROW_BLOCK`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import (BIAS_WRAP, EncoderBlock, ExportError, LayerNorm, MultiHeadAttention,
                     Parameter, QuantizedEmbedding, QuantizedLinear, QuantizedLinearFrozen,
                     freeze_embedding, freeze_linear, kept_for_backward, over_limit)
from .quant import EmaTracker, max_quant_value
from .tensor import ShapeError


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 32
    max_seq_len: int = 16
    num_classes: int = 2
    dim: int = 48
    num_heads: int = 4
    ffn_dim: int = 192
    num_layers: int = 2
    bits: int = 8
    ema_decay: float = 0.9

    def __post_init__(self):
        for field in ("vocab_size", "max_seq_len", "num_classes", "dim",
                      "num_heads", "ffn_dim", "num_layers"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1")
        if self.dim % self.num_heads != 0:
            raise ValueError(f"dim {self.dim} not divisible by {self.num_heads} heads")
        if not 0.0 < self.ema_decay < 1.0:
            raise ValueError("ema_decay must lie in (0, 1)")
        if not 2 <= self.bits <= 8:
            # every integer path (export, dq, the Int8 GEMM) is Int8
            raise ValueError(f"bits must lie in [2, 8], got {self.bits}")


EMBEDDING = "embedding"
NORM = "norm"
LINEAR = "linear"


def layer_tree(config: ModelConfig):
    """The model's leaf layers in forward order: (name, kind, shape).

    This is the one listing of the layer tree. A name is the attribute path
    of the layer in :class:`TransformerEncoderModel` (``blocks.<i>.`` for the
    encoder blocks). The shape is the one the config implies for the
    layer's main tensor: (entries, dim) for an embedding table, (out, in)
    for a linear weight, (dim,) for a layer norm.
    """
    d, f = config.dim, config.ffn_dim
    yield "token_emb", EMBEDDING, (config.vocab_size, d)
    yield "pos_emb", EMBEDDING, (config.max_seq_len, d)
    yield "emb_norm", NORM, (d,)
    for i in range(config.num_layers):
        yield f"blocks.{i}.attn.q_proj", LINEAR, (d, d)
        yield f"blocks.{i}.attn.k_proj", LINEAR, (d, d)
        yield f"blocks.{i}.attn.v_proj", LINEAR, (d, d)
        yield f"blocks.{i}.attn.out_proj", LINEAR, (d, d)
        yield f"blocks.{i}.norm_attn", NORM, (d,)
        yield f"blocks.{i}.fc_expand", LINEAR, (f, d)
        yield f"blocks.{i}.fc_reduce", LINEAR, (d, f)
        yield f"blocks.{i}.norm_ffn", NORM, (d,)
    yield "classifier", LINEAR, (config.num_classes, d)


def _new_leaf(kind, shape, rng, m, ema_decay):
    """A leaf of a new model: N(0, 0.02) tables and weights, zero biases,
    unit gains."""
    if kind == NORM:
        return LayerNorm(np.ones(shape), np.zeros(shape))
    w = rng.normal(0.0, 0.02, size=shape)
    if kind == EMBEDDING:
        return QuantizedEmbedding(w, m=m)
    return QuantizedLinear(w, np.zeros(shape[0]), m=m, input_tracker=EmaTracker(decay=ema_decay))


# Sequences per chunk of an eval batch whose FCs are frozen Int8 layers: a
# larger batch allocates no transient bigger than one chunk's.
EVAL_CHUNK = 64


class TransformerEncoderModel:
    """Token + position embeddings, encoder blocks, first-token classifier.

    The tree runs the same way on any leaves: the training layers of
    :mod:`qat8.layers`, or the integer layers export and dq build.
    """

    # whether eval runs the last block past attention on the first token only
    first_token_eval = True

    def __init__(self, config: ModelConfig, *, quant_enabled: bool = False, seed: int = 0):
        rng = np.random.default_rng(seed)
        # one symmetric grid for every quantized layer, or none for FP32
        m = max_quant_value(config.bits) if quant_enabled else None
        self._build(config, {name: _new_leaf(kind, shape, rng, m, config.ema_decay)
                             for name, kind, shape in layer_tree(config)})

    @classmethod
    def from_layers(cls, config: ModelConfig, layers: dict):
        """The model on leaves already built, keyed by :func:`layer_tree` name."""
        model = cls.__new__(cls)
        model._build(config, layers)
        return model

    def _build(self, config, layers):
        self.config = config
        # the leaves in layer_tree order, held by the tree below as well: its
        # walkers read them here rather than resolve each name's path
        self._leaves = {name: layers[name] for name, _, _ in layer_tree(config)}
        # in that order: the embeddings and their norm, each block's leaves
        # (its attention's four, then its own), the classifier
        self.token_emb, self.pos_emb, self.emb_norm, *inner, self.classifier = self._leaves.values()
        per_block = len(inner) // config.num_layers
        self.blocks = []
        for i in range(0, len(inner), per_block):
            leaves = inner[i:i + per_block]
            attn = MultiHeadAttention(config.num_heads, *leaves[:4])
            self.blocks.append(EncoderBlock(attn, *leaves[4:]))
        self._batch_shape = None
        self._twin = self._twin_of = None

    @property
    def quant_enabled(self) -> bool:
        # every FC leaf has the one grid max m, which is None in an FP32 model
        return self.classifier.m is not None

    # -- structure walkers ---------------------------------------------------

    def named_modules(self):
        """The leaf layers of :func:`layer_tree` by name, in forward order."""
        return self._leaves.items()

    def parameters(self) -> dict[str, Parameter]:
        out = {}
        for mod_name, module in self.named_modules():
            for p_name, param in module.named_params():
                out[f"{mod_name}.{p_name}"] = param
        return out

    def named_qlinears(self) -> list[tuple[str, QuantizedLinear]]:
        return [(name, mod) for name, mod in self.named_modules()
                if isinstance(mod, QuantizedLinear)]

    def overflowing_layers(self) -> list[str]:
        """The Int8 FC layers whose Int32 accumulator can wrap on some input:
        those whose max|bias_q| exceeds their accumulator headroom."""
        return over_limit((name, fc.bias_q, fc.accumulator_headroom())
                          for name, fc in self.named_modules()
                          if isinstance(fc, QuantizedLinearFrozen))

    def uncalibrated(self) -> list[str]:
        """The quantizing FC layers whose activation tracker has seen no data."""
        return [name for name, layer in self.named_qlinears()
                if layer.m is not None and not layer.input_tracker.initialized]

    def zero_grads(self):
        for param in self.parameters().values():
            param.zero_grad()

    # -- forward / backward ---------------------------------------------------

    def forward(self, ids, training: bool = False) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise ShapeError(f"expected (batch, seq) ids, got shape {ids.shape}")
        if ids.shape[1] > self.config.max_seq_len:
            raise ShapeError(f"sequence length {ids.shape[1]} exceeds {self.config.max_seq_len}")
        if training:
            logits = self._encode(ids, True, slice(None))
            self._batch_shape = ids.shape
            return logits
        # a QAT model evaluates by running the Int8 model export builds
        qat = isinstance(self.classifier, QuantizedLinear) and self.quant_enabled
        net = self._int8_twin() if qat else self
        # the classifier reads position 0 only: eval runs the last block past
        # attention on it alone; training keeps every position for backward
        rows = slice(0, 1) if self.first_token_eval else slice(None)
        # the rows of frozen Int8 FCs are exact and independent of their batch,
        # so chunks of the batch give its bits, in buffers of one chunk's size
        if not isinstance(net.classifier, QuantizedLinearFrozen) or len(ids) <= EVAL_CHUNK:
            return net._encode(ids, False, rows)
        return np.concatenate([net._encode(ids[i:i + EVAL_CHUNK], False, rows)
                               for i in range(0, len(ids), EVAL_CHUNK)])

    def _encode(self, ids, training, rows) -> np.ndarray:
        """The logits of checked ids through this model's own leaves, with
        the last block run past attention on the positions ``rows`` selects."""
        pos_ids = np.broadcast_to(np.arange(ids.shape[1]), ids.shape)
        x = self.token_emb.forward(ids, training)
        x += self.pos_emb.forward(pos_ids, training)  # into the fresh lookup
        x = self.emb_norm.forward(x, training)
        *inner, last = self.blocks
        for block in inner:
            x = block.forward(x, training)
        x = last.forward(x, training, rows)
        return self.classifier.forward(x[:, 0, :], training)

    def backward(self, d_logits) -> None:
        batch, seq = kept_for_backward(self._batch_shape)
        d_cls = self.classifier.backward(d_logits)
        d_x = np.zeros((batch, seq, self.config.dim), dtype=np.float32)
        d_x[:, 0, :] = d_cls
        for block in reversed(self.blocks):
            d_x = block.backward(d_x)
        d_x = self.emb_norm.backward(d_x)
        self.token_emb.backward(d_x)
        self.pos_emb.backward(d_x)

    def predict_logits(self, ids) -> np.ndarray:
        """The eval forward, which runs a batch on frozen Int8 FCs in chunks
        of ``EVAL_CHUNK`` sequences."""
        return self.forward(ids, training=False)

    def _int8_twin(self) -> TransformerEncoderModel:
        """The Int8 model export builds from this QAT model, on this model's
        own LayerNorm objects, cached until a value it is built from changes.
        The optimizer writes the arrays in place and a caller may reassign
        them, so they are compared by value (bytes), not by identity."""
        key = [emb.table.value.tobytes() for emb in (self.token_emb, self.pos_emb)]
        for _, fc in self.named_qlinears():
            key += (fc.weight.value.tobytes(), fc.bias.value.tobytes(),
                    fc.input_tracker.running_max, fc.input_tracker.initialized)
        if key != self._twin_of:
            self._twin = convert_layers(self, TransformerEncoderModel, freeze_linear,
                                        lambda norm, m: norm)
            self._twin_of = key
        return self._twin

def convert_layers(model: TransformerEncoderModel, model_cls, convert_linear, convert_norm):
    """``model_cls`` on the layers of a training model, each converted by
    its kind with the grid max of the config's bits: each embedding frozen
    to its Int8 table, each FC by ``convert_linear``, each norm by
    ``convert_norm``. It refuses the Int8 FC layers whose Int32 accumulator
    could wrap, naming every one."""
    convert = {EMBEDDING: freeze_embedding, NORM: convert_norm, LINEAR: convert_linear}
    m = max_quant_value(model.config.bits)
    converted = model_cls.from_layers(model.config, {
        name: convert[kind](layer, m)
        for (name, kind, _), layer in zip(layer_tree(model.config), model._leaves.values())})
    if wrapping := converted.overflowing_layers():
        raise ExportError(f"{BIAS_WRAP}, in {', '.join(wrapping)}")
    return converted
