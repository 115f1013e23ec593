import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qat8.quant import (
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
from qat8.tensor import NonFiniteError

finite_f32 = st.floats(min_value=-100.0, max_value=100.0, width=32,
                       allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("bits,expected", [(8, 127), (4, 7), (2, 1), (16, 32767)])
def test_max_quant_value(bits, expected):
    assert max_quant_value(bits) == expected


def test_max_quant_value_rejects_degenerate_widths():
    for bits in (1, 0, -3):
        with pytest.raises(ValueError):
            max_quant_value(bits)


def test_quantize_known_values():
    assert quantize(0.1, 127.0) == 13  # round(12.7)
    assert quantize(-0.1, 127.0) == -13
    assert quantize(0.0, 127.0) == 0
    np.testing.assert_array_equal(
        quantize(np.array([0.1, -0.1, 1.0]), 127.0), [13, -13, 127])


def test_quantize_rounds_half_away_from_zero():
    # not banker's rounding: ties go away from zero for both signs
    assert quantize(0.5, 1.0) == 1
    assert quantize(1.5, 1.0) == 2
    assert quantize(2.5, 1.0) == 3
    assert quantize(-0.5, 1.0) == -1
    assert quantize(-2.5, 1.0) == -3


def test_quantize_clamps_to_symmetric_range():
    assert quantize(100.0, 127.0) == 127
    assert quantize(-100.0, 127.0) == -127  # never -128
    q = quantize(np.linspace(-10, 10, 1001), 127.0)
    assert q.min() == -127 and q.max() == 127


@pytest.mark.parametrize("m", [127, 2**31 - 1], ids=["int8", "int32-bias"])
def test_quantize_saturates_infinity_and_refuses_nan(m):
    np.testing.assert_array_equal(quantize(np.array([np.inf, -np.inf]), 1.0, m), [m, -m])
    with pytest.raises(NonFiniteError, match="NaN"):
        quantize(np.array([0.5, np.nan]), 1.0, m)


def test_quantize_dtype_by_range():
    assert quantize(1.0, 1.0, 127).dtype == np.int8
    assert quantize(1.0, 1.0, 32767).dtype == np.int16
    assert quantize(1.0, 1.0, 2**31 - 1).dtype == np.int32


def test_quantize_large_magnitude_uses_float64_product():
    # 0.1 * (2**31 - 1) scale: the product must not lose integer precision
    m = 2**31 - 1
    scale = 32258.0
    assert quantize(0.1, scale, m) == 3226  # round(3225.8)


def test_dequantize_known_value():
    out = dequantize(np.array([13], dtype=np.int8), 127.0)
    assert out.dtype == np.float32
    np.testing.assert_allclose(out, [13.0 / 127.0], rtol=1e-7)


def test_weight_scale_known_value():
    w = np.array([[0.5, -0.25], [0.1, 0.0]], dtype=np.float32)
    assert weight_scale(w, 127) == np.float32(254.0)


def test_weight_scale_all_zero_degenerates_to_one():
    assert weight_scale(np.zeros((3, 3), dtype=np.float32)) == np.float32(1.0)


def test_weight_scale_empty_rejected():
    with pytest.raises(ValueError):
        weight_scale(np.zeros((0,), dtype=np.float32))


def test_dynamic_scale_same_formula_as_weight_scale():
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = rng.normal(size=(4, 7)).astype(np.float32)
        assert dynamic_scale(t) == weight_scale(t)
    assert dynamic_scale(np.array([2.54], dtype=np.float32)) == np.float32(50.0)


def test_ema_tracker_first_update_seeds_directly():
    tr = EmaTracker(decay=0.9)
    assert not tr.initialized
    ema_update(tr, 3.0)
    assert tr.initialized
    assert tr.running_max == pytest.approx(3.0)


def test_ema_update_blends_with_decay():
    tr = EmaTracker(decay=0.9, running_max=2.0, initialized=True)
    ema_update(tr, 1.0)
    assert tr.running_max == pytest.approx(0.9 * 2.0 + 0.1 * 1.0)  # 1.9


def test_ema_tracker_rejects_bad_decay():
    with pytest.raises(ValueError):
        EmaTracker(decay=1.5)
    with pytest.raises(ValueError):
        EmaTracker(decay=-0.1)


def test_activation_scale_known_value():
    tr = EmaTracker(decay=0.9, running_max=4.0, initialized=True)
    assert activation_scale(tr, 127) == np.float32(31.75)


def test_activation_scale_requires_initialized_tracker():
    with pytest.raises(TrackerStateError):
        activation_scale(EmaTracker(), 127)


def test_activation_scale_zero_running_max_degenerates_to_one():
    tr = EmaTracker(running_max=0.0, initialized=True)
    assert activation_scale(tr, 127) == np.float32(1.0)


def test_fake_quantize_on_grid():
    x = np.array([0.1, -0.37, 0.92], dtype=np.float32)
    fq = fake_quantize(x, np.float32(127.0), 127)
    np.testing.assert_array_equal(fq * 127.0, np.round(fq * 127.0))


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

value_arrays = arrays(np.float32, st.integers(1, 64), elements=finite_f32)


@given(value_arrays)
def test_quantize_output_in_symmetric_range(x):
    q = quantize(x, 12.5, 127)
    assert q.dtype == np.int8
    assert q.min(initial=0) >= -127
    assert q.max(initial=0) <= 127


@given(value_arrays, st.floats(0.01, 1000.0))
def test_quantize_is_odd_function(x, scale):
    np.testing.assert_array_equal(quantize(-x, scale), -quantize(x, scale))


# the smallest normal float32: m / peak overflows float32
TINY_PEAK = np.array([1.1754944e-38], np.float32)


@given(value_arrays)
@example(x=TINY_PEAK)
def test_round_trip_error_within_half_step(x):
    scale = weight_scale(x)
    err = np.abs(dequantize(quantize(x, scale), scale) - x)
    # half a quantization step, plus float32 slack on the grid points
    assert np.all(err <= 0.5 / scale * (1 + 1e-5))


@given(value_arrays)
@example(x=TINY_PEAK)
def test_fake_quantize_idempotent(x):
    scale = weight_scale(x)
    once = fake_quantize(x, scale)
    np.testing.assert_array_equal(fake_quantize(once, scale), once)


@given(st.floats(0.0, 50.0), st.floats(0.0, 50.0),
       st.floats(0.05, 0.95))
def test_ema_stays_between_old_and_new(old, new, decay):
    tr = EmaTracker(decay=decay, running_max=old, initialized=True)
    ema_update(tr, new)
    lo, hi = sorted((old, new))
    slack = 1e-6 * max(1.0, hi)
    assert lo - slack <= tr.running_max <= hi + slack


@settings(max_examples=30)
@given(arrays(np.float32, st.tuples(st.integers(1, 8), st.integers(1, 8)),
              elements=finite_f32))
def test_quantized_weights_land_on_grid(w):
    scale = weight_scale(w)
    q = quantize(w, scale)
    back = dequantize(q, scale)
    np.testing.assert_array_equal(quantize(back, scale), q)


@pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("convert", [quantize, dequantize], ids=["quantize", "dequantize"])
def test_a_scale_must_be_positive_and_finite(convert, scale):
    with pytest.raises(ValueError, match="^scale must be positive and finite, got "):
        convert(np.ones(2, np.float32), scale)


def test_quantize_refuses_an_empty_grid():
    with pytest.raises(ValueError, match="^max quantized value must be >= 1, got 0$"):
        quantize(np.ones(2, np.float32), 1.0, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("scale_of", [weight_scale, dynamic_scale], ids=["weight", "dynamic"])
def test_scales_refuse_a_non_finite_tensor(scale_of, bad):
    with pytest.raises(NonFiniteError, match="^tensor contains NaN or Inf$"):
        scale_of(np.array([1.0, bad], dtype=np.float32))


@pytest.mark.parametrize("running_max", [-1.0, np.inf, np.nan])
def test_ema_tracker_rejects_a_bad_running_max(running_max):
    with pytest.raises(ValueError, match="^running_max must be finite and >= 0, got "):
        EmaTracker(running_max=running_max)


def test_ema_update_rejects_a_negative_batch_max():
    with pytest.raises(ValueError, match=r"^batch max must be >= 0, got -1\.0$"):
        ema_update(EmaTracker(), -1.0)
