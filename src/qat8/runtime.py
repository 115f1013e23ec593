"""True-integer inference: export, frozen Int8 models, and the dynamic path.

Export freezes the training-time statistics: weight scales come from the
final FP32 weights, activation scales from the EMA trackers, and biases are
quantized to Int32 with the product of the two. The integer models are
the encoder of :mod:`qat8.model` on integer leaves, run by its forward pass:
every FC is an Int8 GEMM accumulated into the Int32 bias, and the
accumulator is dequantized to FP32 right after each FC because the
surrounding ops (softmax, layer norm, GELU, residual adds) stay FP32.

The dynamic-quantization path reuses the same integer kernels but computes
each activation scale from the incoming tensor itself and keeps biases in
FP32, since no training statistics exist for a post-training model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# attention_mix and gelu_forward run in the shared forward of qat8.model; they
# stay importable from here, where perfbench/spans.py looks up the FP32 ops
from .layers import (attention_mix, embedding_ids, gelu_forward,  # noqa: F401
                     layer_norm_forward, linear_rows)
from .model import EMBEDDING, LINEAR, NORM, ModelConfig, TransformerEncoderModel, layer_tree
from .quant import activation_scale, dynamic_scale, max_quant_value, quantize, weight_scale
from .tensor import gemm_i8_i32

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
    m: int = 127           # the grid is [-m, m]

    @property
    def bias_scale(self) -> np.float32:
        return np.float32(self.input_scale) * np.float32(self.weight_scale)

    def forward(self, x, training: bool = False) -> np.ndarray:
        return int8_linear_infer(self, x)


@dataclass
class DynamicQuantLinear:
    """FC layer with Int8 weight but FP32 bias; activation scale is dynamic."""

    weight_q: np.ndarray   # int8, [out, in]
    weight_scale: np.float32
    bias: np.ndarray       # float32, [out]
    m: int = 127           # the grid is [-m, m]

    def forward(self, x, training: bool = False) -> np.ndarray:
        return dynamic_linear_infer(self, x)


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


@dataclass
class LayerNormFrozen:
    """Layer-norm gain and bias, applied in FP32."""

    gain: np.ndarray       # float32, [dim]
    bias: np.ndarray       # float32, [dim]

    def forward(self, x, training: bool = False) -> np.ndarray:
        return layer_norm_forward(x, self.gain, self.bias)[0]


def int8_linear_infer(layer: QuantizedLinearFrozen, x) -> np.ndarray:
    """Quantize the input with the frozen scale, run Int8 GEMM into the
    Int32 bias, then dequantize the accumulator by input_scale * weight_scale."""
    x2, lead = linear_rows(x, layer.weight_q.shape[1])
    acc = gemm_i8_i32(quantize(x2, layer.input_scale, layer.m), layer.weight_q.T)
    acc += layer.bias_q
    y = acc.astype(np.float32)
    y /= layer.bias_scale
    return y.reshape(lead + (layer.weight_q.shape[0],))


def dynamic_linear_infer(layer: DynamicQuantLinear, x) -> np.ndarray:
    """Int8 GEMM with the activation scale taken from the incoming tensor."""
    x2, lead = linear_rows(x, layer.weight_q.shape[1])
    s_x = dynamic_scale(x2, layer.m)
    y = gemm_i8_i32(quantize(x2, s_x, layer.m), layer.weight_q.T).astype(np.float32)
    y /= np.float32(s_x) * np.float32(layer.weight_scale)
    y += layer.bias
    return y.reshape(lead + (layer.weight_q.shape[0],))


def _peak(q) -> int:
    """max |q| of an integer array, exact even for -2**31."""
    return int(np.abs(q, dtype=np.int64).max())


class _IntegerEncoder(TransformerEncoderModel):
    """The encoder on integer leaves, for inference only: its scales are
    fixed, and it keeps nothing for a backward pass."""

    def __init__(self, config: ModelConfig, layers: dict):
        self._build(config, True, layers)

    def forward(self, ids, training: bool = False) -> np.ndarray:
        if training:
            raise RuntimeError("integer models run inference only")
        return super().forward(ids)


class QuantizedModelFrozen(_IntegerEncoder):
    """Exported model: Int8 weights, Int32 biases, frozen scales."""

    def overflowing_layers(self) -> list[str]:
        """The FC layers whose Int32 accumulator can wrap on some input.

        Inputs and weights lie on the grid [-m, m], so |x_q . w_q| <= K m**2
        for inner dimension K, and ``acc = x_q . w_q + bias_q`` fits in Int32
        for every input exactly when max|bias_q| + K m**2 <= 2**31 - 1.
        """
        fcs = {name: layer for name, layer in self.named_modules()
               if isinstance(layer, QuantizedLinearFrozen)}
        headroom = {name: INT32_MAX - layer.weight_q.shape[1] * layer.m ** 2
                    for name, layer in fcs.items()}
        # one pass over all the biases against the tightest headroom settles
        # the usual case at a fraction of the cost of one pass per layer
        biases = np.concatenate([layer.bias_q for layer in fcs.values()])
        if _peak(biases) <= min(headroom.values()):
            return []
        return [name for name, layer in fcs.items() if _peak(layer.bias_q) > headroom[name]]


class DynamicQuantModel(_IntegerEncoder):
    """Post-training model: Int8 weights, FP32 biases, per-tensor dynamic scales."""


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
        m=m,
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
        m=m,
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
