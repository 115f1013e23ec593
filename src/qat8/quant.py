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

from .tensor import NonFiniteError


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


try:  # the clip ufunc itself, without np.clip's Python wrapper
    from numpy._core.umath import clip as _clip
except ImportError:  # NumPy < 2
    from numpy.core.umath import clip as _clip

# Float32 has 24 significant bits, so every half-integer of magnitude below
# 2**23 is a float32. Below this grid max, every rounding boundary k + 1/2
# inside the grid is one.
_F32_MAX_M = 1 << 23
# |v - rint(v)| at or past which an element is recomputed with the
# half-away formula: the ties, 0.5, and in float64 also 0.5 - 2**-54, the
# one magnitude where that formula's v + 0.5 rounds up to 1.0. As a float32
# the threshold is 0.5 itself.
_RECOMPUTE_AT = 0.5 - 2.0 ** -54


def round_onto_grid(x: np.ndarray, s, m: int) -> np.ndarray:
    """clamp(round(x * s), -m, m) as floats of the dtype of ``s``, a float32
    or float64 scale that :func:`quantize` would choose for ``x`` and m.

    This is :func:`quantize` without its checks and its integer cast: the
    Int8 FC layers multiply these integer-valued floats directly
    (``tensor.gemm_grid``). NaN raises :class:`NonFiniteError` without a
    pass of its own: it is the one value besides the ties that the tie mask
    ``~(|v - rint(v)| < threshold)`` selects. A product past the float range
    saturates like an infinity, but sets the overflow flag: the caller
    decides, with ``np.errstate``, whether that may warn.
    """
    v = np.multiply(x, s, out=np.empty(x.shape, s.dtype), dtype=s.dtype)
    _clip(v, -m, m, out=v)
    r = np.rint(v, out=np.empty(x.shape, s.dtype))
    v -= r
    kept = np.abs(v, out=v) < _RECOMPUTE_AT
    if not kept.all():
        recompute = ~kept
        exact = np.multiply(x[recompute], float(s), dtype=np.float64)
        if np.isnan(exact).any():
            raise NonFiniteError("quantize input contains NaN")
        r[recompute] = np.trunc(exact + np.copysign(0.5, exact))
    return r


def quantize(x, scale: float, m: int = 127) -> np.ndarray:
    """Map FP32 values onto the integer grid: clamp(round(x * scale), -m, m).

    Rounding is half-away-from-zero, which keeps the map odd-symmetric, and
    acts on the float64 product, which is exact when x and scale are float32
    values. An infinity saturates to -m or m like any value past the grid,
    and so, silently, does a product too large for its float type; NaN,
    which has no integer, raises :class:`NonFiniteError`.

    The product is formed in float32 when that decides the same integers:
    the input is float32, the scale a float32 value and m < 2**23. Rounding
    the exact product to float32 is monotone, and every boundary k + 1/2
    inside the grid is a float32, so the float32 product lies on the same
    side of each boundary as the exact product unless it lands exactly on
    one. Away from those ties, clipping to [-m, m] and ``np.rint`` give the
    exact product's integer. ``v - rint(v)`` is exact, so ``|v - rint(v)|
    == 0.5`` finds every tie, and only the ties are recomputed from the
    float64 product as trunc(v + copysign(0.5, v)). Any other call (float64
    data, a scale that is not a float32, the Int32 bias grid) runs the same
    steps on the float64 product. :func:`round_onto_grid` runs these steps.
    """
    x, s = _grid_operands(x, scale, m)
    with np.errstate(over="ignore"):
        return round_onto_grid(x, s, m).astype(_int_dtype_for(m))


def _grid_operands(x, scale: float, m: int):
    """x as an array and the scale as the float type :func:`quantize` forms
    the product in, after checking the scale and m."""
    scale = float(scale)
    if not np.isfinite(scale) or scale <= 0.0:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    if m < 1:
        raise ValueError(f"max quantized value must be >= 1, got {m}")
    x = np.asarray(x)
    s = np.float32(scale)
    if not (x.dtype == np.float32 and m < _F32_MAX_M and float(s) == scale):
        s = np.float64(scale)
    return x, s


def dequantize(q, scale: float) -> np.ndarray:
    """Inverse map: q / scale, in FP32."""
    scale = float(scale)
    if not np.isfinite(scale) or scale <= 0.0:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    return np.divide(q, np.float32(scale), dtype=np.float32)


def max_abs(t) -> float:
    """max |t| without an |t| temporary: the larger of max t and -min t.
    NaN propagates. Adding 0.0 turns the -0.0 that an all-zero tensor can
    give into 0.0, as |t| would."""
    return float(np.maximum(t.max(), -t.min())) + 0.0


# The smallest float64 that rounds to inf in float32: halfway between the
# largest float32 and 2**128, where ties round up.
F32_OVERFLOW = 2.0 ** 128 - 2.0 ** 103


def _scale_for_peak(peak: float, m: int) -> np.float32:
    """m / peak in FP32. A zero peak, or one so small that the scale is not
    finite, quantizes to zeros at any scale, so it gets scale 1.0."""
    if peak == 0.0 or m / peak >= F32_OVERFLOW:
        return np.float32(1.0)
    return np.float32(m / peak)


def _max_abs_scale(t, m: int) -> np.float32:
    t = np.asarray(t)
    if t.size == 0:
        raise ValueError("cannot derive a scale from an empty tensor")
    peak = max_abs(t)
    if not np.isfinite(peak):
        raise NonFiniteError("tensor contains NaN or Inf")
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
    if not np.isfinite(batch_max):
        raise NonFiniteError(f"batch max must be finite, got {batch_max}")
    if batch_max < 0.0:
        raise ValueError(f"batch max must be >= 0, got {batch_max}")
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

    The bytes are ``dequantize(quantize(x, scale, m), scale)``'s, without
    the integer copy: the grid stays in the floats :func:`round_onto_grid`
    rounds into. Adding 0.0 turns the -0.0 it can round to into the 0.0 an
    integer grid holds, and each k is divided as that integer cast to FP32.
    """
    x, s = _grid_operands(x, scale, m)
    with np.errstate(over="ignore"):
        r = round_onto_grid(x, s, m)
    r += 0.0
    if r.dtype != np.float32:
        return np.divide(r, np.float32(scale), dtype=np.float32)
    r /= np.float32(scale)
    return r
