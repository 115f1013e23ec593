"""Small transformer encoder classifier built from quantization-capable layers.

Every FC and embedding layer can fake-quantize; softmax, layer norm and
GELU run in FP32 only. With quantization disabled the model is an ordinary
FP32 transformer, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import EncoderBlock, LayerNorm, Parameter, QuantizedEmbedding, QuantizedLinear
from .quant import max_quant_value
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


def ids_and_positions(ids, config: ModelConfig):
    """Check that ids are (batch, seq) with seq <= max_seq_len; return the
    ids as an array and their position ids."""
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise ShapeError(f"expected (batch, seq) ids, got shape {ids.shape}")
    batch, seq = ids.shape
    if seq > config.max_seq_len:
        raise ShapeError(f"sequence length {seq} exceeds {config.max_seq_len}")
    return ids, np.broadcast_to(np.arange(seq), (batch, seq))


class TransformerEncoderModel:
    """Token + position embeddings, encoder blocks, first-token classifier."""

    def __init__(self, config: ModelConfig, *, quant_enabled: bool = False, seed: int = 0):
        self.config = config
        self.quant_enabled = quant_enabled
        rng = np.random.default_rng(seed)
        # one symmetric grid for every quantized layer, or none for FP32
        m = max_quant_value(config.bits) if quant_enabled else None
        kw = dict(rng=rng, m=m, ema_decay=config.ema_decay)
        self.token_emb = QuantizedEmbedding(config.vocab_size, config.dim, rng=rng, m=m)
        self.pos_emb = QuantizedEmbedding(config.max_seq_len, config.dim, rng=rng, m=m)
        self.emb_norm = LayerNorm(config.dim)
        self.blocks = [
            EncoderBlock(config.dim, config.num_heads, config.ffn_dim, **kw)
            for _ in range(config.num_layers)
        ]
        self.classifier = QuantizedLinear(config.dim, config.num_classes, **kw)
        self._batch_shape = None

    # -- structure walkers ---------------------------------------------------

    def named_modules(self):
        """The leaf layers of :func:`layer_tree`, resolved as attribute paths."""
        for name, _, _ in layer_tree(self.config):
            module = self
            for part in name.split("."):
                module = module[int(part)] if part.isdigit() else getattr(module, part)
            yield name, module

    def parameters(self) -> dict[str, Parameter]:
        out = {}
        for mod_name, module in self.named_modules():
            for p_name, param in module.named_params():
                out[f"{mod_name}.{p_name}"] = param
        return out

    def named_qlinears(self) -> list[tuple[str, QuantizedLinear]]:
        return [(name, mod) for name, mod in self.named_modules()
                if isinstance(mod, QuantizedLinear)]

    def zero_grads(self):
        for param in self.parameters().values():
            param.zero_grad()

    # -- forward / backward ---------------------------------------------------

    def forward(self, ids, training: bool = False) -> np.ndarray:
        ids, pos_ids = ids_and_positions(ids, self.config)
        x = self.token_emb.forward(ids, training) + self.pos_emb.forward(pos_ids, training)
        x = self.emb_norm.forward(x, training)
        for block in self.blocks:
            x = block.forward(x, training)
        if training:
            self._batch_shape = ids.shape
        return self.classifier.forward(x[:, 0, :], training)

    def backward(self, d_logits) -> None:
        if self._batch_shape is None:
            raise RuntimeError("backward called before forward(training=True)")
        batch, seq = self._batch_shape
        d_cls = self.classifier.backward(d_logits)
        d_x = np.zeros((batch, seq, self.config.dim), dtype=np.float32)
        d_x[:, 0, :] = d_cls
        for block in reversed(self.blocks):
            d_x = block.backward(d_x)
        d_x = self.emb_norm.backward(d_x)
        self.token_emb.backward(d_x)
        self.pos_emb.backward(d_x)

    def predict_logits(self, ids) -> np.ndarray:
        return self.forward(ids, training=False)
