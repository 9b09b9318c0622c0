import math

import numpy as np
import pytest

from avloc import ops


def finite_diff(fn, x, eps=1e-6):
    grad = np.zeros_like(x)
    for j in range(x.size):
        up = x.copy()
        down = x.copy()
        up.flat[j] += eps
        down.flat[j] -= eps
        grad.flat[j] = (fn(up) - fn(down)) / (2 * eps)
    return grad


def test_precision_dtypes():
    assert ops.Precision.STANDARD.dtype == np.float32
    assert ops.Precision.CHECKING.dtype == np.float64


def test_sigmoid_grad_matches_finite_differences():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(11)
    gout = rng.standard_normal(11)

    def sigmoid(xx):
        return 0.5 * np.tanh(0.5 * xx) + 0.5

    grad = ops.sigmoid_grad(sigmoid(x), gout)
    num = finite_diff(lambda xx: float(gout @ sigmoid(xx)), x)
    assert np.allclose(grad, num, atol=1e-8)


def test_tanh_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(11)
    gout = rng.standard_normal(11)
    grad = ops.tanh_grad(np.tanh(x), gout)
    num = finite_diff(lambda xx: float(gout @ np.tanh(xx)), x)
    assert np.allclose(grad, num, atol=1e-8)


def test_softmax_known_values():
    p = ops.softmax(np.array([0.0, 0.0]))
    assert np.allclose(p, [0.5, 0.5], atol=1e-15)
    p = ops.softmax(np.array([0.0, math.log(3.0)]))
    assert np.allclose(p, [0.25, 0.75], atol=1e-15)


def test_softmax_sums_to_one_and_stays_finite():
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = rng.standard_normal(7) * rng.uniform(1, 300)
        p = ops.softmax(x)
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) < 1e-6
        assert np.all(np.isfinite(p))


def test_softmax_shift_invariance_bitwise_on_exact_grid():
    # inputs and shift chosen so x + shift is exact in binary
    x = np.array([0.5, -1.25, 2.0, 0.0])
    assert np.array_equal(ops.softmax(x), ops.softmax(x + 4.0))


def test_softmax_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ops.softmax(np.zeros(()))
    with pytest.raises(ValueError):
        ops.softmax(np.zeros(0))
    with pytest.raises(ValueError):
        ops.softmax(np.zeros((2, 0)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [2, 5, 29, 200])
def test_softmax_rows_are_bitwise_the_per_row_softmax(dtype, k):
    rng = np.random.default_rng(k)
    for _ in range(50):
        logits = (rng.standard_normal((10, k)) * rng.uniform(0.1, 50)).astype(dtype)
        rows = ops.softmax(logits)
        assert rows.dtype == dtype
        for row, x in zip(rows, logits):
            e = np.exp(x - x.max())
            one = ops.softmax(x)
            assert one.tobytes() == (e / e.sum()).tobytes()
            assert row.tobytes() == one.tobytes()


def test_softmax_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(6)
    gout = rng.standard_normal(6)
    out = ops.softmax(x)
    grad = ops.softmax_grad(out, gout)
    num = finite_diff(lambda xx: float(gout @ ops.softmax(xx)), x)
    assert np.allclose(grad, num, atol=1e-8)
