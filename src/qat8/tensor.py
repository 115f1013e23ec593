"""Dense tensor helpers and the two GEMM kernels everything else builds on.

Conventions used throughout the package:

* FP32 tensors are ``np.ndarray`` with dtype ``float32``, row-major.
* Int8 tensors hold values in ``[-127, 127]`` for 8-bit quantization
  (``-128`` is never produced, keeping the grid symmetric around zero).
* Int32 tensors appear only as GEMM accumulators and quantized biases.

Both GEMMs run on the float BLAS that NumPy links. The integer GEMM is
still exact: with Int8 operands every product is an integer of magnitude
at most 128**2 = 2**14, so every partial sum of a K-term dot product is an
integer of magnitude at most K * 2**14. A float type holds every integer up
to 2**24 (float32) or 2**53 (float64) exactly, so while that bound fits,
every addition the BLAS kernel makes is exact, whatever order it sums in,
and the result equals the Int32 accumulation bit for bit.
"""

from __future__ import annotations

import numpy as np

# Inner-dimension cap for the integer GEMM. With 8-bit operands,
# 2**15 * 128 * 128 = 2**29 < 2**31, so the Int32 accumulator cannot overflow.
INT_GEMM_MAX_K = 1 << 15

# Largest inner dimension for which float32 accumulation is exact:
# 1024 * 128 * 128 = 2**24, the end of float32's run of exact integers.
_F32_EXACT_MAX_K = (1 << 24) // (128 * 128)


class ShapeError(ValueError):
    """Operand shapes are inconsistent for the requested operation."""


class CapacityError(ValueError):
    """Operand sizes exceed a documented kernel limit."""


def _check_2d_pair(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"gemm requires 2-D operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions disagree: {a.shape} x {b.shape}")


def gemm_f32(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """FP32 GEMM: c[i, j] = sum_t a[i, t] * b[t, j].

    Accumulation runs in float32 through one fixed kernel (numpy's BLAS
    matmul), so repeated calls on identical inputs are bit-identical on a
    given build. Tiling inside the kernel is allowed by the determinism
    contract; only the output bytes are pinned.
    """
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    _check_2d_pair(a, b)
    if not np.isfinite(a).all() or not np.isfinite(b).all():
        raise ValueError("gemm_f32 operands must be finite")
    return np.matmul(a, b)


def gemm_i8_i32(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Int8 x Int8 GEMM with exact Int32 accumulation.

    The inner dimension is capped at ``INT_GEMM_MAX_K`` so the accumulator
    cannot overflow; within that cap the result is exact and independent of
    summation order.

    The product runs as a float BLAS GEMM (see the module docstring): in
    float32 while K * 128**2 <= 2**24 (K <= 1024, every GEMM of the default
    model), in float64 above that, where K * 128**2 <= 2**29 stays far below
    2**53. The exact integer result is then converted to Int32.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    _check_2d_pair(a, b)
    if a.dtype != np.int8 or b.dtype != np.int8:
        raise TypeError(f"gemm_i8_i32 requires int8 operands, got {a.dtype} x {b.dtype}")
    if a.shape[1] > INT_GEMM_MAX_K:
        raise CapacityError(
            f"inner dimension {a.shape[1]} exceeds {INT_GEMM_MAX_K}; "
            "Int32 accumulator could overflow"
        )
    ftype = np.float32 if a.shape[1] <= _F32_EXACT_MAX_K else np.float64
    return np.matmul(a.astype(ftype), b.astype(ftype)).astype(np.int32)
