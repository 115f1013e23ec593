"""True-integer inference: export, frozen Int8 models, and the dynamic path.

Export freezes the training-time statistics: weight scales come from the
final FP32 weights, activation scales from the EMA trackers, and biases are
quantized to Int32 with the product of the two. Inference then runs every
FC as an Int8 GEMM accumulated into the Int32 bias; the accumulator is
dequantized to FP32 right after each FC because the surrounding ops
(softmax, layer norm, GELU, residual adds) stay FP32.

The dynamic-quantization path reuses the same integer kernels but computes
each activation scale from the incoming tensor itself and keeps biases in
FP32, since no training statistics exist for a post-training model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import attention_mix, embedding_ids, gelu_forward, layer_norm_forward
from .model import (EMBEDDING, LINEAR, NORM, ModelConfig, TransformerEncoderModel,
                    ids_and_positions, layer_tree)
from .quant import activation_scale, dynamic_scale, max_quant_value, quantize, weight_scale
from .tensor import ShapeError, gemm_i8_i32

INT32_MAX = (1 << 31) - 1


class ExportError(RuntimeError):
    """The model cannot be exported to integer form."""


@dataclass
class QuantizedLinearFrozen:
    """FC layer frozen to Int8 weight, Int32 bias, and fixed scales."""

    weight_q: np.ndarray   # int8, [out, in]
    weight_scale: np.float32
    input_scale: np.float32
    bias_q: np.ndarray     # int32, [out]

    @property
    def bias_scale(self) -> np.float32:
        return np.float32(self.input_scale) * np.float32(self.weight_scale)


@dataclass
class DynamicQuantLinear:
    """FC layer with Int8 weight but FP32 bias; activation scale is dynamic."""

    weight_q: np.ndarray   # int8, [out, in]
    weight_scale: np.float32
    bias: np.ndarray       # float32, [out]


@dataclass
class QuantizedEmbeddingFrozen:
    """Int8 embedding table; rows are dequantized by the table scale on lookup."""

    table_q: np.ndarray    # int8, [entries, dim]
    scale: np.float32

    def lookup(self, ids) -> np.ndarray:
        ids = embedding_ids(ids, self.table_q.shape[0])
        return self.table_q[ids].astype(np.float32) / np.float32(self.scale)


@dataclass
class LayerNormFrozen:
    """Layer-norm gain and bias, applied in FP32."""

    gain: np.ndarray       # float32, [dim]
    bias: np.ndarray       # float32, [dim]


def int8_linear_infer(layer: QuantizedLinearFrozen, x, m: int = 127) -> np.ndarray:
    """Quantize the input with the frozen scale, run Int8 GEMM into the
    Int32 bias, then dequantize the accumulator by input_scale * weight_scale."""
    x = np.asarray(x, dtype=np.float32)
    if x.shape[-1] != layer.weight_q.shape[1]:
        raise ShapeError(f"expected last dim {layer.weight_q.shape[1]}, got {x.shape}")
    lead = x.shape[:-1]
    x_q = quantize(x.reshape(-1, x.shape[-1]), layer.input_scale, m)
    acc = gemm_i8_i32(x_q, layer.weight_q.T)
    acc += layer.bias_q
    y = acc.astype(np.float32)
    y /= layer.bias_scale
    return y.reshape(lead + (layer.weight_q.shape[0],))


def dynamic_linear_infer(layer: DynamicQuantLinear, x, m: int = 127) -> np.ndarray:
    """Int8 GEMM with the activation scale taken from the incoming tensor."""
    x = np.asarray(x, dtype=np.float32)
    if x.shape[-1] != layer.weight_q.shape[1]:
        raise ShapeError(f"expected last dim {layer.weight_q.shape[1]}, got {x.shape}")
    lead = x.shape[:-1]
    x2 = x.reshape(-1, x.shape[-1])
    s_x = dynamic_scale(x2, m)
    y = gemm_i8_i32(quantize(x2, s_x, m), layer.weight_q.T).astype(np.float32)
    y /= np.float32(s_x) * np.float32(layer.weight_scale)
    y += layer.bias
    return y.reshape(lead + (layer.weight_q.shape[0],))


def _peak(q) -> int:
    """max |q| of an integer array, exact even for -2**31."""
    return int(np.abs(q, dtype=np.int64).max())


class _IntegerEncoder:
    """Forward pass shared by the frozen and dynamic integer models.

    ``layers`` maps each name of :func:`~qat8.model.layer_tree` to its
    inference layer, in that order. Immutable after construction; scales are
    never updated at inference.
    """

    def __init__(self, config: ModelConfig, layers: dict):
        self.config = config
        self.layers = layers
        self.m = max_quant_value(config.bits)
        # group the layers once, here, so forward does no name lookups: the
        # encoder blocks' layers by block, the rest in forward order
        outer, self._blocks = [], [[] for _ in range(config.num_layers)]
        for name, layer in layers.items():
            if name.startswith("blocks."):
                self._blocks[int(name.split(".")[1])].append(layer)
            else:
                outer.append(layer)
        self._token_emb, self._pos_emb, self._emb_norm, self._classifier = outer

    def named_modules(self):
        return self.layers.items()

    def _linear(self, layer, x):
        raise NotImplementedError

    def forward(self, ids) -> np.ndarray:
        ids, pos_ids = ids_and_positions(ids, self.config)
        x = self._token_emb.lookup(ids) + self._pos_emb.lookup(pos_ids)
        x, _ = layer_norm_forward(x, self._emb_norm.gain, self._emb_norm.bias)
        for q, k, v, out, norm_attn, fc_expand, fc_reduce, norm_ffn in self._blocks:
            ctx, _ = attention_mix(self._linear(q, x), self._linear(k, x),
                                   self._linear(v, x), self.config.num_heads)
            h, _ = layer_norm_forward(x + self._linear(out, ctx),
                                      norm_attn.gain, norm_attn.bias)
            f = self._linear(fc_reduce, gelu_forward(self._linear(fc_expand, h)))
            x, _ = layer_norm_forward(h + f, norm_ffn.gain, norm_ffn.bias)
        return self._linear(self._classifier, x[:, 0, :])

    def predict_logits(self, ids) -> np.ndarray:
        return self.forward(ids)


class QuantizedModelFrozen(_IntegerEncoder):
    """Exported model: Int8 weights, Int32 biases, frozen scales."""

    def _linear(self, layer, x):
        return int8_linear_infer(layer, x, self.m)

    def overflowing_layers(self) -> list[str]:
        """The FC layers whose Int32 accumulator can wrap on some input.

        Inputs and weights lie on the grid [-m, m], so |x_q . w_q| <= K m**2
        for inner dimension K, and ``acc = x_q . w_q + bias_q`` fits in Int32
        for every input exactly when max|bias_q| + K m**2 <= 2**31 - 1.
        """
        fcs = {name: layer for name, layer in self.layers.items()
               if isinstance(layer, QuantizedLinearFrozen)}
        headroom = {name: INT32_MAX - layer.weight_q.shape[1] * self.m ** 2
                    for name, layer in fcs.items()}
        # one pass over all the biases against the tightest headroom settles
        # the usual case at a fraction of the cost of one pass per layer
        biases = np.concatenate([layer.bias_q for layer in fcs.values()])
        if _peak(biases) <= min(headroom.values()):
            return []
        return [name for name, layer in fcs.items() if _peak(layer.bias_q) > headroom[name]]


class DynamicQuantModel(_IntegerEncoder):
    """Post-training model: Int8 weights, FP32 biases, per-tensor dynamic scales."""

    def _linear(self, layer, x):
        return dynamic_linear_infer(layer, x, self.m)


def _freeze_linear(layer, m: int) -> QuantizedLinearFrozen:
    w = layer.weight.value
    s_w = weight_scale(w, m)
    s_x = activation_scale(layer.input_tracker, m)
    bias_scale = np.float32(s_x) * np.float32(s_w)
    return QuantizedLinearFrozen(
        weight_q=quantize(w, s_w, m),
        weight_scale=s_w,
        input_scale=s_x,
        bias_q=quantize(layer.bias.value, bias_scale, INT32_MAX).astype(np.int32),
    )


def _freeze_embedding(emb, m: int) -> QuantizedEmbeddingFrozen:
    scale = weight_scale(emb.table.value, m)
    return QuantizedEmbeddingFrozen(table_q=quantize(emb.table.value, scale, m), scale=scale)


def _dynamic_linear(layer, m: int) -> DynamicQuantLinear:
    w = layer.weight.value
    s_w = weight_scale(w, m)
    return DynamicQuantLinear(
        weight_q=quantize(w, s_w, m),
        weight_scale=s_w,
        bias=layer.bias.value.copy(),
    )


def _copy_norm(norm, m: int) -> LayerNormFrozen:
    return LayerNormFrozen(gain=norm.gain.value.copy(), bias=norm.bias.value.copy())


def _convert(model: TransformerEncoderModel, model_cls, convert_linear):
    """Convert each layer of a training model by its kind."""
    convert = {EMBEDDING: _freeze_embedding, NORM: _copy_norm, LINEAR: convert_linear}
    m = max_quant_value(model.config.bits)
    modules = dict(model.named_modules())
    return model_cls(model.config, {name: convert[kind](modules[name], m)
                                    for name, kind, _ in layer_tree(model.config)})


def export(model: TransformerEncoderModel) -> QuantizedModelFrozen:
    """Freeze a quantization-aware-trained model to true integer form."""
    if not model.quant_enabled:
        raise ExportError(
            "model was trained without quantization; integer export requires "
            "quantization-aware training (use the dynamic path instead)"
        )
    uninitialized = [name for name, layer in model.named_qlinears()
                     if not layer.input_tracker.initialized]
    if uninitialized:
        raise ExportError(
            "model was never trained with quantization: no activation statistics "
            f"for {', '.join(uninitialized)}"
        )
    frozen = _convert(model, QuantizedModelFrozen, _freeze_linear)
    wrapping = frozen.overflowing_layers()
    if wrapping:
        raise ExportError(
            "Int32 bias too large: max|bias_q| + K*m^2 exceeds 2**31 - 1, so the "
            f"accumulator could wrap, in {', '.join(wrapping)}"
        )
    return frozen


def dq_quantize(model: TransformerEncoderModel) -> DynamicQuantModel:
    """Post-training dynamic quantization of an FP32 baseline.

    Weights (including embedding tables) are quantized once with their
    weight scales; activation scales are computed per incoming tensor at
    inference time. No retraining, no calibration.
    """
    return _convert(model, DynamicQuantModel, _dynamic_linear)
