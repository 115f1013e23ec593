"""Symmetric linear quantization: scales, rounding and fake quantization.

The scheme maps FP32 values onto a uniform integer grid centered at zero:

    q = clamp(round(x * scale), -M, M)        with M = 2**(bits-1) - 1

There is no zero-point. Weight scales come from the tensor max, activation
scales from an exponential moving average of per-batch maxima collected
during training (or from the incoming tensor itself in the dynamic path).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class TrackerStateError(RuntimeError):
    """An activation-range tracker was used before observing any data."""


def max_quant_value(bits: int) -> int:
    """Largest representable quantized magnitude for a signed width: 2**(bits-1) - 1."""
    if bits < 2:
        raise ValueError(f"bit-width must be >= 2, got {bits}")
    return (1 << (bits - 1)) - 1


def _int_dtype_for(m: int):
    if m <= 127:
        return np.int8
    if m <= 32767:
        return np.int16
    return np.int32


def quantize(x, scale: float, m: int = 127) -> np.ndarray:
    """Map FP32 values onto the integer grid: clamp(round(x * scale), -m, m).

    Rounding is half-away-from-zero, which keeps the map odd-symmetric.
    The product runs in float64 so the rounding decision reflects the real
    product rather than a float32 intermediate. The final cast truncates
    toward zero; clipping before it gives the same integers as clipping
    after, because the bounds are integers.
    """
    scale = float(scale)
    if not np.isfinite(scale) or scale <= 0.0:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    if m < 1:
        raise ValueError(f"max quantized value must be >= 1, got {m}")
    v = np.multiply(x, scale, out=np.empty(np.shape(x)), dtype=np.float64)
    v += np.copysign(0.5, v)
    np.clip(v, -m, m, out=v)
    return v.astype(_int_dtype_for(m))


def dequantize(q, scale: float) -> np.ndarray:
    """Inverse map: q / scale, in FP32."""
    scale = float(scale)
    if not np.isfinite(scale) or scale <= 0.0:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    return np.asarray(q, dtype=np.float32) / np.float32(scale)


# The smallest float64 that rounds to inf in float32: halfway between the
# largest float32 and 2**128, where ties round up.
_F32_OVERFLOW = 2.0 ** 128 - 2.0 ** 103


def _scale_for_peak(peak: float, m: int) -> np.float32:
    """m / peak in FP32. A zero peak, or one so small that the scale is not
    finite, quantizes to zeros at any scale, so it gets scale 1.0."""
    if peak == 0.0 or m / peak >= _F32_OVERFLOW:
        return np.float32(1.0)
    return np.float32(m / peak)


def _max_abs_scale(t, m: int) -> np.float32:
    t = np.asarray(t)
    if t.size == 0:
        raise ValueError("cannot derive a scale from an empty tensor")
    peak = float(np.max(np.abs(t)))
    if not np.isfinite(peak):
        raise ValueError("tensor contains NaN or Inf")
    return _scale_for_peak(peak, m)


def weight_scale(w, m: int = 127) -> np.float32:
    """Weight scaling-factor: m / max(|w|). All-zero tensors get scale 1.0."""
    return _max_abs_scale(w, m)


def dynamic_scale(x, m: int = 127) -> np.float32:
    """Activation scale computed from the incoming tensor itself.

    Same formula as :func:`weight_scale`; used by the post-training dynamic
    quantization path, where no training statistics exist.
    """
    return _max_abs_scale(x, m)


@dataclass
class EmaTracker:
    """Running exponential moving average of max(|activation|) at one site.

    The first observation seeds ``running_max`` directly; afterwards each
    update applies ``decay * old + (1 - decay) * new``. State is kept at
    FP32 resolution so serialized trackers reproduce in-memory behavior.
    """

    decay: float = 0.9
    running_max: float = 0.0
    initialized: bool = False

    def __post_init__(self):
        if not 0.0 < self.decay < 1.0:
            raise ValueError(f"decay must lie in (0, 1), got {self.decay}")
        if not 0.0 <= self.running_max < np.inf:
            raise ValueError(f"running_max must be finite and >= 0, got {self.running_max}")


def ema_update(tracker: EmaTracker, batch_max: float) -> EmaTracker:
    """Fold one batch's max(|x|) into the tracker (mutates and returns it)."""
    batch_max = float(batch_max)
    if not np.isfinite(batch_max) or batch_max < 0.0:
        raise ValueError(f"batch max must be finite and >= 0, got {batch_max}")
    if not tracker.initialized:
        tracker.running_max = float(np.float32(batch_max))
        tracker.initialized = True
    else:
        new = tracker.decay * tracker.running_max + (1.0 - tracker.decay) * batch_max
        tracker.running_max = float(np.float32(new))
    return tracker


def activation_scale(tracker: EmaTracker, m: int) -> np.float32:
    """Activation scaling-factor from training statistics: m / EMA(max|x|)."""
    if not tracker.initialized:
        raise TrackerStateError("activation tracker has not observed any batch")
    return _scale_for_peak(tracker.running_max, m)


def fake_quantize(x, scale: float, m: int = 127) -> np.ndarray:
    """Quantize then dequantize, staying in FP32.

    The output lies on the quantization grid (each element is k / scale for
    an integer |k| <= m), so the rounding error the integer pipeline will
    incur is visible to FP32 training.
    """
    return dequantize(quantize(x, scale, m), scale)
