import numpy as np
import pytest

from qat8.layers import Parameter
from qat8.optim import Adam


def test_single_step_closed_form():
    p = Parameter(np.array([1.0], dtype=np.float32))
    opt = Adam({"p": p}, lr=0.001)
    p.grad[:] = 3.0
    opt.step()
    # bias-corrected first step: p -= lr * g / (|g| + eps)
    expected = 1.0 - 0.001 * 3.0 / (3.0 + 1e-8)
    assert p.value[0] == pytest.approx(expected, abs=1e-9)


def test_two_step_recurrence_matches_manual_update():
    rng = np.random.default_rng(0)
    value = rng.normal(size=(3, 2)).astype(np.float32)
    g1 = rng.normal(size=(3, 2)).astype(np.float32)
    g2 = rng.normal(size=(3, 2)).astype(np.float32)

    p = Parameter(value.copy())
    opt = Adam({"p": p}, lr=0.01)
    p.grad[:] = g1
    opt.step()
    p.grad[:] = g2
    opt.step()

    # independent float64 reference
    m = np.zeros_like(value, dtype=np.float64)
    v = np.zeros_like(value, dtype=np.float64)
    x = value.astype(np.float64)
    for t, g in ((1, g1), (2, g2)):
        g = g.astype(np.float64)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9**t)
        vhat = v / (1 - 0.999**t)
        x = x - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
    np.testing.assert_allclose(p.value, x, rtol=1e-5, atol=1e-7)


def test_zero_grad_leaves_value_unchanged():
    p = Parameter(np.array([2.5, -1.0], dtype=np.float32))
    opt = Adam({"p": p}, lr=0.1)
    opt.step()  # grad is zero
    np.testing.assert_array_equal(p.value, [2.5, -1.0])


def test_updates_multiple_params_independently():
    a = Parameter(np.zeros(2, dtype=np.float32))
    b = Parameter(np.zeros(2, dtype=np.float32))
    opt = Adam({"a": a, "b": b}, lr=0.5)
    a.grad[:] = 1.0
    opt.step()
    assert np.abs(a.value).sum() > 0
    np.testing.assert_array_equal(b.value, [0.0, 0.0])


def test_rejects_bad_hyperparameters():
    p = Parameter(np.zeros(1, dtype=np.float32))
    with pytest.raises(ValueError):
        Adam({"p": p}, lr=-1.0)


@pytest.mark.parametrize("lr", [0.0, float("nan"), float("inf")])
def test_rejects_lr_that_is_not_positive_and_finite(lr):
    p = Parameter(np.zeros(1, dtype=np.float32))
    with pytest.raises(ValueError, match="lr"):
        Adam({"p": p}, lr=lr)


def test_rejects_a_gradient_of_the_wrong_shape():
    p = Parameter(np.zeros(2, dtype=np.float32))
    p.grad = np.zeros(3, dtype=np.float32)
    with pytest.raises(ValueError, match="^gradient shape mismatch for p$"):
        Adam({"p": p}).step()
