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

from .layers import ExportError, LayerNorm, freeze_linear, linear_rows
# perfbench/spans.py looks up attention_mix, gelu_forward, layer_norm_forward,
# int8_linear_infer and QuantizedEmbeddingFrozen here; runtime uses none of them
from .layers import (QuantizedEmbeddingFrozen, attention_mix, gelu_forward,  # noqa: F401
                     int8_linear_infer, layer_norm_forward)
from .model import TransformerEncoderModel, convert_layers
from .quant import dynamic_scale, quantize, weight_scale
from .tensor import gemm_i8_i32


@dataclass
class DynamicQuantLinear:
    """FC layer with Int8 weight but FP32 bias; activation scale is dynamic."""

    weight_q: np.ndarray   # int8, [out, in]
    weight_scale: np.float32
    bias: np.ndarray       # float32, [out]
    m: int = 127           # the grid is [-m, m]

    def forward(self, x, training: bool = False) -> np.ndarray:
        return dynamic_linear_infer(self, x)


def dynamic_linear_infer(layer: DynamicQuantLinear, x) -> np.ndarray:
    """Int8 GEMM with the activation scale taken from the incoming tensor."""
    x2, lead = linear_rows(x, layer.weight_q.shape[1])
    s_x = dynamic_scale(x2, layer.m)
    y = gemm_i8_i32(quantize(x2, s_x, layer.m), layer.weight_q.T).astype(np.float32)
    y /= np.float32(s_x) * np.float32(layer.weight_scale)
    y += layer.bias
    return y.reshape(lead + (layer.weight_q.shape[0],))


class _IntegerEncoder(TransformerEncoderModel):
    """The encoder on integer leaves, for inference only: its scales are
    fixed, and it keeps nothing for a backward pass."""

    def forward(self, ids, training: bool = False) -> np.ndarray:
        if training:
            raise RuntimeError("integer models run inference only")
        return super().forward(ids)


class QuantizedModelFrozen(_IntegerEncoder):
    """Exported model: Int8 weights, Int32 biases, frozen scales."""


class DynamicQuantModel(_IntegerEncoder):
    """Post-training model: Int8 weights, FP32 biases, per-tensor dynamic scales."""

    # a dynamic scale is max|x| over the whole input tensor, so a row's logits
    # depend on every position and every other row: the last block keeps them all
    first_token_eval = False


def _dynamic_linear(layer, m: int) -> DynamicQuantLinear:
    w = layer.weight.value
    s_w = weight_scale(w, m)
    return DynamicQuantLinear(
        weight_q=quantize(w, s_w, m),
        weight_scale=s_w,
        bias=layer.bias.value.copy(),
        m=m,
    )


def _copy_norm(norm, m: int) -> LayerNorm:
    return LayerNorm(norm.gain.value.copy(), norm.bias.value.copy())


def _convert(model: TransformerEncoderModel, model_cls, convert_linear):
    """The integer model of a training model, with copies of its norms."""
    if isinstance(model, _IntegerEncoder):
        raise ExportError(f"{type(model).__name__} is already an integer model; "
                          "export and dq convert a training model")
    return convert_layers(model, model_cls, convert_linear, _copy_norm)


def export(model: TransformerEncoderModel) -> QuantizedModelFrozen:
    """Freeze a quantization-aware-trained model to true integer form."""
    if not model.quant_enabled:
        raise ExportError(
            "model was trained without quantization; integer export requires "
            "quantization-aware training (use the dynamic path instead)"
        )
    if uncalibrated := model.uncalibrated():
        raise ExportError(
            "model was never trained with quantization: no activation statistics "
            f"for {', '.join(uncalibrated)}"
        )
    return _convert(model, QuantizedModelFrozen, freeze_linear)


def dq_quantize(model: TransformerEncoderModel) -> DynamicQuantModel:
    """Post-training dynamic quantization of an FP32 baseline.

    Weights (including embedding tables) are quantized once with their
    weight scales; activation scales are computed per incoming tensor at
    inference time. No retraining, no calibration.
    """
    return _convert(model, DynamicQuantModel, _dynamic_linear)
