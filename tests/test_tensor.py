import numpy as np
import pytest

from qat8.tensor import (
    INT_GEMM_MAX_K,
    CapacityError,
    ShapeError,
    gemm_f32,
    gemm_grid,
    gemm_i8_i32,
)


def test_gemm_f32_small_known_product():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    b = np.array([[5.0, 6.0], [7.0, 8.0]], dtype=np.float32)
    np.testing.assert_array_equal(gemm_f32(a, b),
                                  np.array([[19.0, 22.0], [43.0, 50.0]]))


def test_gemm_f32_returns_float32():
    out = gemm_f32(np.ones((3, 4)), np.ones((4, 2)))
    assert out.dtype == np.float32
    assert out.shape == (3, 2)


def test_gemm_f32_matches_float64_reference():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(17, 33)).astype(np.float32)
    b = rng.normal(size=(33, 9)).astype(np.float32)
    ref = a.astype(np.float64) @ b.astype(np.float64)
    np.testing.assert_allclose(gemm_f32(a, b), ref, rtol=1e-5, atol=1e-5)


def test_gemm_f32_is_deterministic():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(64, 128)).astype(np.float32)
    b = rng.normal(size=(128, 32)).astype(np.float32)
    first = gemm_f32(a, b)
    for _ in range(5):
        np.testing.assert_array_equal(gemm_f32(a, b), first)


def test_gemm_f32_accepts_transposed_views():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(5, 7)).astype(np.float32)
    w = rng.normal(size=(3, 7)).astype(np.float32)
    np.testing.assert_array_equal(gemm_f32(a, w.T), gemm_f32(a, w.T.copy()))


@pytest.mark.parametrize("shapes", [((3,), (3, 2)), ((2, 3), (2, 3)),
                                    ((2, 3, 4), (4, 2))])
def test_gemm_f32_rejects_bad_shapes(shapes):
    sa, sb = shapes
    with pytest.raises(ShapeError):
        gemm_f32(np.ones(sa, dtype=np.float32), np.ones(sb, dtype=np.float32))


def test_gemm_f32_rejects_non_finite():
    a = np.array([[1.0, np.nan]], dtype=np.float32)
    with pytest.raises(ValueError):
        gemm_f32(a, np.ones((2, 1), dtype=np.float32))


def test_gemm_i8_i32_small_known_product():
    a = np.array([[1, 2], [3, 4]], dtype=np.int8)
    b = np.array([[5, 6], [7, 8]], dtype=np.int8)
    out = gemm_i8_i32(a, b)
    assert out.dtype == np.int32
    np.testing.assert_array_equal(out, [[19, 22], [43, 50]])


def test_gemm_i8_i32_extreme_values_do_not_wrap():
    # 2 * 127 * 127 = 32258 would overflow an int16 accumulator
    a = np.full((1, 2), 127, dtype=np.int8)
    b = np.full((2, 1), 127, dtype=np.int8)
    assert gemm_i8_i32(a, b)[0, 0] == 32258
    a = np.full((1, 2), -127, dtype=np.int8)
    assert gemm_i8_i32(a, b)[0, 0] == -32258


def test_gemm_i8_i32_requires_int8():
    with pytest.raises(TypeError):
        gemm_i8_i32(np.ones((2, 2), dtype=np.int16), np.ones((2, 2), dtype=np.int8))
    with pytest.raises(TypeError):
        gemm_i8_i32(np.ones((2, 2), dtype=np.float32), np.ones((2, 2), dtype=np.int8))


def test_gemm_i8_i32_inner_dim_cap():
    k = INT_GEMM_MAX_K
    a = np.zeros((1, k + 1), dtype=np.int8)
    b = np.zeros((k + 1, 1), dtype=np.int8)
    with pytest.raises(CapacityError):
        gemm_i8_i32(a, b)
    # at the cap, the worst case still fits an int32 accumulator
    assert k * 128 * 128 < 2**31 - 1


def test_gemm_i8_i32_at_cap_boundary():
    k = INT_GEMM_MAX_K
    a = np.full((1, k), 127, dtype=np.int8)
    b = np.full((k, 1), 127, dtype=np.int8)
    assert gemm_i8_i32(a, b)[0, 0] == k * 127 * 127


def test_gemm_i8_i32_at_cap_with_minus_128():
    # the int8 dtype admits -128: the worst case is 2**15 * 128**2 = 2**29
    k = INT_GEMM_MAX_K
    a = np.full((1, k), -128, dtype=np.int8)
    out = gemm_i8_i32(a, a.T.copy())
    assert out.dtype == np.int32
    assert out[0, 0] == 2**29


def _int64_gemm(a, b):
    return np.matmul(a.astype(np.int64), b.astype(np.int64))


# float32 holds every integer up to 2**24 = 1024 * 128**2 exactly; the kernel
# switches to float64 above K = 1024
@pytest.mark.parametrize("k", [1024, 1025])
@pytest.mark.parametrize("value", [127, -128])
def test_gemm_i8_i32_float32_limit(k, value):
    a = np.full((2, k), value, dtype=np.int8)
    b = np.full((k, 3), value, dtype=np.int8)
    b[:, 1] = -127  # a column of products of the other sign
    got = gemm_i8_i32(a, b)
    assert got.dtype == np.int32
    np.testing.assert_array_equal(got, _int64_gemm(a, b))


def test_gemm_i8_i32_just_past_float32_limit_is_exact():
    # 1024 * (-128)**2 + 1 = 2**24 + 1, the first integer float32 cannot hold
    a = np.full((1, 1025), -128, dtype=np.int8)
    a[0, -1] = 1
    assert gemm_i8_i32(a, a.T.copy())[0, 0] == 2**24 + 1


def test_gemm_i8_i32_matches_int64_oracle_at_model_shape():
    # the 256-row batch through fc_reduce: (256 * 16, 192) x (192, 48)
    rng = np.random.default_rng(3)
    a = rng.integers(-128, 128, size=(4096, 192)).astype(np.int8)
    w = rng.integers(-128, 128, size=(48, 192)).astype(np.int8)
    np.testing.assert_array_equal(gemm_i8_i32(a, w.T), _int64_gemm(a, w.T))



@pytest.mark.parametrize("k", [1024, 1025])
def test_gemm_grid_takes_the_int8_grid_as_floats(k):
    # the Int8 FC layers pass their grid as float32; the product is exact in
    # float32 up to K = 1024 and in float64 past it
    rng = np.random.default_rng(4)
    a = rng.integers(-128, 128, size=(3, k)).astype(np.int8)
    b = rng.integers(-128, 128, size=(k, 5)).astype(np.int8)
    a[0], b[:, 0] = -128, -128
    b[-1, 0] = 1
    got = gemm_grid(a.astype(np.float32), b.astype(np.float32))
    assert got.dtype == (np.float32 if k <= 1024 else np.float64)
    np.testing.assert_array_equal(got, _int64_gemm(a, b))
    np.testing.assert_array_equal(got, gemm_i8_i32(a, b))
