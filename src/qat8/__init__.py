"""Quantization-aware training and exact int8 inference for a small
transformer encoder, with a dynamic-quantization baseline."""

from .config import RunConfig, load_config
from .format import FormatError, deserialize, load_artifact, save_artifact, serialize
from .model import ModelConfig, TransformerEncoderModel
from .quant import (
    EmaTracker,
    TrackerStateError,
    activation_scale,
    dequantize,
    dynamic_scale,
    ema_update,
    fake_quantize,
    max_quant_value,
    quantize,
    weight_scale,
)
from .runtime import (
    DynamicQuantModel,
    ExportError,
    QuantizedModelFrozen,
    dq_quantize,
    export,
)
from .task import ComparisonReport, SyntheticTask, relative_error, run_comparison
from .tensor import CapacityError, ShapeError, gemm_f32, gemm_i8_i32
from .training import (NonFiniteLogitsError, TrainConfig, TrainingDivergedError, TrainReport,
                       accuracy_of, train)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ComparisonReport",
    "DynamicQuantModel",
    "EmaTracker",
    "ExportError",
    "FormatError",
    "ModelConfig",
    "NonFiniteLogitsError",
    "QuantizedModelFrozen",
    "RunConfig",
    "ShapeError",
    "SyntheticTask",
    "TrackerStateError",
    "TrainConfig",
    "TrainReport",
    "TrainingDivergedError",
    "TransformerEncoderModel",
    "accuracy_of",
    "activation_scale",
    "dequantize",
    "deserialize",
    "dq_quantize",
    "dynamic_scale",
    "ema_update",
    "export",
    "fake_quantize",
    "gemm_f32",
    "gemm_i8_i32",
    "load_artifact",
    "load_config",
    "max_quant_value",
    "quantize",
    "relative_error",
    "run_comparison",
    "save_artifact",
    "serialize",
    "train",
    "weight_scale",
    "__version__",
]
