"""The forward ops that work in place against their plain expressions.

Each reference below is the straightforward NumPy expression of the op,
one fresh array per step. The package's ops reuse buffers instead and must
give the same bytes: same dtype, same shape, same bits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qat8.layers import (INT32_MAX, QuantizedLinearFrozen, attention_mix, gelu_backward,
                         gelu_forward, layer_norm_forward, merge_heads, softmax_backward,
                         softmax_forward, split_heads)
from qat8.quant import dynamic_scale, fake_quantize, max_abs, max_quant_value, quantize
from qat8.runtime import DynamicQuantLinear, dynamic_linear_infer, int8_linear_infer

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _int_dtype(m):
    return np.int8 if m <= 127 else np.int16 if m <= 32767 else np.int32


def ref_quantize(x, scale, m):
    v = np.asarray(x, dtype=np.float64) * float(scale)
    r = np.trunc(v + np.copysign(0.5, v))
    return np.clip(r, -m, m).astype(_int_dtype(m))


def ref_gelu(x):
    x = np.asarray(x, dtype=np.float32)
    u = _GELU_C * (x + _GELU_A * x * x * x)
    return 0.5 * x * (1.0 + np.tanh(u))


def ref_gelu_backward(upstream, x):
    t = np.tanh(_GELU_C * (x + _GELU_A * x * x * x))
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
    return upstream * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


def ref_softmax(x):
    z = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def ref_softmax_backward(upstream, probs):
    dot = np.sum(upstream * probs, axis=-1, keepdims=True)
    return probs * (upstream - dot)


def ref_attention_mix(q, k, v, heads):
    qh, kh, vh = (split_heads(t, heads) for t in (q, k, v))
    scores = np.matmul(qh, kh.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(qh.shape[-1]))
    probs = ref_softmax(scores)
    return merge_heads(np.matmul(probs, vh)), probs


def ref_layer_norm(x, gain, bias, eps=1e-12):
    mu = np.mean(x, axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return gain * xhat + bias, (xhat, inv)


def ref_gemm(a, b):
    return np.matmul(a.astype(np.int64), b.astype(np.int64)).astype(np.int32)


def ref_int8_linear(layer, x, m):
    lead = x.shape[:-1]
    x_q = ref_quantize(x.reshape(-1, x.shape[-1]), layer.input_scale, m)
    acc = ref_gemm(x_q, layer.weight_q.T) + layer.bias_q[None, :]
    y = acc.astype(np.float32) / layer.bias_scale
    return y.reshape(lead + (layer.weight_q.shape[0],))


def ref_dynamic_linear(layer, x, m):
    lead = x.shape[:-1]
    x2 = x.reshape(-1, x.shape[-1])
    s_x = dynamic_scale(x2, m)
    acc = ref_gemm(ref_quantize(x2, s_x, m), layer.weight_q.T)
    y = acc.astype(np.float32) / (np.float32(s_x) * np.float32(layer.weight_scale))
    y = y + layer.bias
    return y.reshape(lead + (layer.weight_q.shape[0],))


def assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.fixture
def rng():
    return np.random.default_rng(20)


# activation rows of a 256-row batch at the default config, scaled so that
# some values saturate at every width
@pytest.mark.parametrize("bits", [4, 8])
@pytest.mark.parametrize("shape", [(4096, 48), (4096, 192), (192, 48), (1, 48), (1,), ()])
def test_quantize_matches_reference(rng, bits, shape):
    m = max_quant_value(bits)
    x = (rng.standard_normal(shape) * 3.0).astype(np.float32)
    for scale in (1.0, m / 4.0, np.float32(m / 7.3)):
        assert_same_bytes(quantize(x, scale, m), ref_quantize(x, scale, m))


@pytest.mark.parametrize("m", [7, 127, INT32_MAX])
def test_quantize_ties_match_reference(m):
    ties = [0.5, 126.5, m + 0.5, m - 0.5, m + 1.5, 1e300]
    x = np.array(ties + [-t for t in ties] + [0.0, -0.0, 2.5, -2.5])
    assert_same_bytes(quantize(x, 1.0, m), ref_quantize(x, 1.0, m))
    for t in x:
        assert_same_bytes(quantize(t, 1.0, m), ref_quantize(t, 1.0, m))
        assert_same_bytes(quantize([t], 1.0, m), ref_quantize([t], 1.0, m))


def test_quantize_bias_path_matches_reference(rng):
    # biases quantize at the product scale onto the Int32 grid
    b = (rng.standard_normal(192) * 0.05).astype(np.float32)
    b[:3] = [1e4, -1e4, 0.0]
    s_b = np.float32(127.0 / 3.1) * np.float32(127.0 / 0.07)
    assert_same_bytes(quantize(b, s_b, INT32_MAX), ref_quantize(b, s_b, INT32_MAX))
    assert_same_bytes(quantize(b, 1e9, INT32_MAX), ref_quantize(b, 1e9, INT32_MAX))


# Near-ties: the float32 neighbours of (k + 1/2) / s, whose products sit a
# rounding error either side of k + 1/2, and that quotient itself, whose
# float32 product is often exactly k + 1/2 while the exact product is not.
# At a power-of-two scale the quotient is an exact tie.
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(bits=st.sampled_from([2, 3, 4, 5, 6, 7, 8, 16]),
       scale=st.one_of(st.floats(2.0 ** -10, 2.0 ** 13, width=32),
                       st.integers(-10, 13).map(lambda e: 2.0 ** e)),
       ks=st.lists(st.tuples(st.integers(-40_000, 40_000), st.sampled_from([-1, 0, 1])),
                   min_size=1, max_size=64))
def test_quantize_matches_reference_at_planted_ties(bits, scale, ks):
    m = max_quant_value(bits)
    s = np.float32(scale)
    x = []
    for k, side in ks:
        k = k % (2 * m + 3) - m - 2   # k + 1/2 in [-m - 1.5, m + 1.5]
        t = np.float32((k + 0.5) / float(s))
        x.append(np.nextafter(t, np.float32(side * np.inf)) if side else t)
    x = np.array(x + [np.inf, -np.inf, 0.0, -0.0], dtype=np.float32)
    assert_same_bytes(quantize(x, s, m), ref_quantize(x, s, m))


def test_quantize_recomputes_a_float32_tie_the_exact_product_misses():
    # (1.5 (1 + 2**-20)) * (1 - 2**-20) = 1.5 (1 - 2**-40): just below the
    # tie, so it rounds to 1, but its float32 product is 1.5 itself
    x = np.float32(1.5 * (1 + 2.0 ** -20))
    s = np.float32(1 - 2.0 ** -20)
    assert x * s == np.float32(1.5) and float(x) * float(s) < 1.5
    for v in (x, -x):
        assert_same_bytes(quantize(np.array([v]), s, 127), np.array([np.sign(v)], np.int8))
        assert_same_bytes(quantize(np.array([v]), s, 127), ref_quantize([v], s, 127))


def test_quantize_uses_a_scale_that_is_not_a_float32_as_it_is():
    # 7 * 2.2142857165 = 15.5000000155 rounds to 16; the scale rounded to
    # float32 would put the product below 15.5
    x = np.float32([7.0, -7.0])
    assert_same_bytes(quantize(x, 2.2142857165, 127), np.array([16, -16], np.int8))
    assert_same_bytes(quantize(x, 2.2142857165, 127), ref_quantize(x, 2.2142857165, 127))


def test_quantize_rounds_past_2_to_the_23_in_float64():
    # 5592407 * 1.5 = 8388610.5 is a tie that float32, with no halves past
    # 2**23, would round to the even 8388610
    m = max_quant_value(25)
    x = np.float32([5592407.0, -5592407.0])
    assert_same_bytes(quantize(x, 1.5, m), np.array([8388611, -8388611], np.int32))


def test_quantize_keeps_the_half_away_formula_below_one_half_in_float64():
    # 0.5 - 2**-54 is the largest float64 below 1/2; the formula's v + 0.5
    # rounds up to 1.0 there, where rint(v) is 0
    x = np.array([0.5 - 2.0 ** -54, -(0.5 - 2.0 ** -54)])
    assert_same_bytes(quantize(x, 1.0, 127), ref_quantize(x, 1.0, 127))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x,scale,m", [(np.float32([1e30, -1e30]), np.float32(1e10), 127),
                                       (np.array([1e300, -1e300]), 1e10, INT32_MAX)],
                         ids=["float32", "float64"])
def test_quantize_saturates_an_overflowing_product_silently(x, scale, m):
    assert_same_bytes(quantize(x, scale, m), np.array([m, -m], dtype=_int_dtype(m)))


@pytest.mark.parametrize("shape", [(4096, 48), (192, 48), (1,), ()])
def test_fake_quantize_matches_reference(rng, shape):
    x = (rng.standard_normal(shape) * 3.0).astype(np.float32)
    s = np.float32(127 / 7.3)
    want = np.asarray(ref_quantize(x, s, 127), np.float32) / np.float32(s)
    assert_same_bytes(fake_quantize(x, s, 127), want)


def test_max_abs_matches_reference(rng):
    zeros = np.zeros(5, np.float32)
    mixed = np.array([0.0, -0.0, 0.0], np.float32)
    for t in (rng.standard_normal((256, 48)).astype(np.float32), -np.abs(zeros + 2.0),
              zeros, -zeros, mixed, -mixed, np.float32([-np.inf, 1.0])):
        assert_same_bytes(np.float64(max_abs(t)), np.float64(np.max(np.abs(t))))
    assert math.isnan(max_abs(np.float32([1.0, np.nan, -2.0])))


@pytest.mark.parametrize("shape", [(256, 16, 192), (1, 1, 192), (1,), ()])
def test_gelu_matches_reference(rng, shape):
    x = (rng.standard_normal(shape) * 3.0).astype(np.float32)
    assert_same_bytes(gelu_forward(x), ref_gelu(x))


@pytest.mark.parametrize("shape", [(64, 16, 192), (1, 1, 192), (1,)])
def test_gelu_backward_with_kept_tanh_matches_reference(rng, shape):
    x = (rng.standard_normal(shape) * 3.0).astype(np.float32)
    up = rng.standard_normal(shape).astype(np.float32)
    y, t = gelu_forward(x, keep_tanh=True)
    assert_same_bytes(y, ref_gelu(x))
    assert_same_bytes(gelu_backward(up, x, t), ref_gelu_backward(up, x))


def test_gelu_edge_values_match_reference():
    x = np.array([0.0, -0.0, 1e-45, -1e-45, 1e-38, 30.0, -30.0, 1e19, -1e19],
                 dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_bytes(gelu_forward(x), ref_gelu(x))
        for v in x:
            assert_same_bytes(gelu_forward(v), ref_gelu(v))


# with every row length the max's halving tree treats differently: one
# wide, even and odd at each level, and the default config's 16
@pytest.mark.parametrize("shape", [(256, 4, 16, 16), (1, 4, 1, 1), (1,), (64, 2), (64, 3),
                                   (64, 7), (64, 13), (64, 17)])
def test_softmax_matches_reference(rng, shape):
    x = (rng.standard_normal(shape) * 4.0).astype(np.float32)
    assert_same_bytes(softmax_forward(x), ref_softmax(x))


@pytest.mark.parametrize("n", [5, 7, 16])
def test_softmax_special_rows_match_reference(n):
    inf, nan = np.inf, np.nan
    rows = np.zeros((10, n), np.float32)
    rows[0, ::2] = -0.0             # +0.0 and -0.0 mixed, either first
    rows[1, 1::2] = -0.0
    rows[2] = -0.0
    rows[3, -1] = -0.0
    rows[4, [0, -1]] = [inf, -inf]
    rows[5] = -inf
    rows[5, -1] = 1.0
    rows[6] = -inf
    rows[7] = inf
    rows[8, 2] = nan
    rows[9, -1] = nan
    with np.errstate(invalid="ignore"):
        assert_same_bytes(softmax_forward(rows), ref_softmax(rows))


@pytest.mark.parametrize("shape", [(3, 0), (0,), (0, 0)])
def test_softmax_of_an_empty_last_axis_raises_as_the_plain_max_does(shape):
    x = np.zeros(shape, np.float32)
    with pytest.raises(Exception) as want:
        ref_softmax(x)
    with pytest.raises(want.type, match=f"^{want.value}$"):
        softmax_forward(x)


def test_softmax_of_no_rows_matches_reference():
    x = np.zeros((0, 4, 16, 16), np.float32)
    assert_same_bytes(softmax_forward(x), ref_softmax(x))


@pytest.mark.parametrize("shape", [(256, 4, 16, 16), (9, 13), (4, 1)])
def test_softmax_into_its_input_matches_reference(rng, shape):
    x = (rng.standard_normal(shape) * 4.0).astype(np.float32)
    want = ref_softmax(x)
    assert softmax_forward(x, out=x) is x
    assert_same_bytes(x, want)


@pytest.mark.parametrize("shape", [(256, 16, 192), (1, 1, 192), (1,), ()])
def test_gelu_into_its_input_matches_reference(rng, shape):
    x = np.array(rng.standard_normal(shape) * 3.0, np.float32)
    want = ref_gelu(x)
    assert gelu_forward(x, out=x) is x
    assert_same_bytes(x, want)


def test_forward_ops_leave_their_input_untouched_by_default(rng):
    x = (rng.standard_normal((8, 4, 16, 17)) * 4.0).astype(np.float32)
    before = x.copy()
    softmax_forward(x)
    gelu_forward(x)
    gelu_forward(x, keep_tanh=True)
    assert_same_bytes(x, before)


@pytest.mark.parametrize("shape", [(64, 4, 16, 16), (3, 7), (1,)])
def test_softmax_backward_matches_reference(rng, shape):
    probs = softmax_forward((rng.standard_normal(shape) * 4.0).astype(np.float32))
    up = rng.standard_normal(shape).astype(np.float32)
    assert_same_bytes(softmax_backward(up, probs), ref_softmax_backward(up, probs))


@pytest.mark.parametrize("batch,seq,heads", [(256, 16, 4), (1, 3, 2)])
def test_attention_mix_matches_reference(rng, batch, seq, heads):
    q, k, v = ((rng.standard_normal((batch, seq, 48)) * 2.0).astype(np.float32)
               for _ in range(3))
    got, want = attention_mix(q, k, v, heads), ref_attention_mix(q, k, v, heads)
    for g, w in zip(got, want):
        assert_same_bytes(g, w)


@pytest.mark.parametrize("shape", [(256, 16, 48), (1, 1, 48), (1,)])
def test_layer_norm_matches_reference(rng, shape):
    x = (rng.standard_normal(shape) * 2.0 + 0.5).astype(np.float32)
    gain = (1.0 + 0.1 * rng.standard_normal(shape[-1:])).astype(np.float32)
    bias = (0.1 * rng.standard_normal(shape[-1:])).astype(np.float32)
    y, (xhat, inv) = layer_norm_forward(x, gain, bias)
    ref_y, (ref_xhat, ref_inv) = ref_layer_norm(x, gain, bias)
    assert_same_bytes(y, ref_y)
    assert_same_bytes(xhat, ref_xhat)
    assert_same_bytes(inv, ref_inv)


@pytest.mark.parametrize("lead", [(256, 16), (1, 1)])
def test_integer_linears_match_reference(rng, lead):
    w_q = rng.integers(-127, 128, size=(192, 48)).astype(np.int8)
    x = (rng.standard_normal(lead + (48,)) * 2.0).astype(np.float32)
    frozen = QuantizedLinearFrozen(weight_q=w_q, weight_scale=np.float32(311.0),
                                   input_scale=np.float32(127.0 / 5.3),
                                   bias_q=rng.integers(-50_000, 50_000, 192).astype(np.int32))
    dynamic = DynamicQuantLinear(weight_q=w_q, weight_scale=np.float32(311.0),
                                 bias=(0.1 * rng.standard_normal(192)).astype(np.float32))
    assert_same_bytes(int8_linear_infer(frozen, x), ref_int8_linear(frozen, x, 127))
    assert_same_bytes(dynamic_linear_infer(dynamic, x), ref_dynamic_linear(dynamic, x, 127))
