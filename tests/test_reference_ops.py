"""The forward ops that work in place against their plain expressions.

Each reference below is the straightforward NumPy expression of the op,
one fresh array per step. The package's ops reuse buffers instead and must
give the same bytes: same dtype, same shape, same bits.
"""

import math

import numpy as np
import pytest

from qat8.layers import gelu_forward, layer_norm_forward, softmax_forward
from qat8.quant import dynamic_scale, max_quant_value, quantize
from qat8.runtime import (
    INT32_MAX,
    DynamicQuantLinear,
    QuantizedLinearFrozen,
    dynamic_linear_infer,
    int8_linear_infer,
)

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


def ref_softmax(x):
    z = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


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


@pytest.mark.parametrize("shape", [(256, 16, 192), (1, 1, 192), (1,), ()])
def test_gelu_matches_reference(rng, shape):
    x = (rng.standard_normal(shape) * 3.0).astype(np.float32)
    assert_same_bytes(gelu_forward(x), ref_gelu(x))


def test_gelu_edge_values_match_reference():
    x = np.array([0.0, -0.0, 1e-45, -1e-45, 1e-38, 30.0, -30.0, 1e19, -1e19],
                 dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_bytes(gelu_forward(x), ref_gelu(x))
        for v in x:
            assert_same_bytes(gelu_forward(v), ref_gelu(v))


@pytest.mark.parametrize("shape", [(256, 4, 16, 16), (1, 4, 1, 1), (1,)])
def test_softmax_matches_reference(rng, shape):
    x = (rng.standard_normal(shape) * 4.0).astype(np.float32)
    assert_same_bytes(softmax_forward(x), ref_softmax(x))


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
