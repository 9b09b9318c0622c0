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


def test_matvec_matches_manual_sum():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 4))
    x = rng.standard_normal(4)
    want = [sum(m[i, j] * x[j] for j in range(4)) for i in range(3)]
    assert np.allclose(ops.matvec(m, x), want, atol=1e-14)


def test_matvec_shape_errors():
    with pytest.raises(ops.ShapeError):
        ops.matvec(np.zeros((2, 3)), np.zeros(4))
    with pytest.raises(ops.ShapeError):
        ops.matvec(np.zeros(3), np.zeros(3))
    with pytest.raises(ops.ShapeError):
        ops.matvec_grad(np.zeros((2, 3)), np.zeros(3), np.zeros(5))


def test_matvec_grad_against_finite_differences():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((3, 4))
    x = rng.standard_normal(4)
    gout = rng.standard_normal(3)
    dm, dx = ops.matvec_grad(m, x, gout)
    num_dm = finite_diff(lambda mm: float(gout @ (mm @ x)), m)
    num_dx = finite_diff(lambda xx: float(gout @ (m @ xx)), x)
    assert np.allclose(dm, num_dm, atol=1e-8)
    assert np.allclose(dx, num_dx, atol=1e-8)


def test_sigmoid_values_and_range():
    assert ops.sigmoid(np.array([0.0]))[0] == 0.5
    x = np.linspace(-40, 40, 201)
    y = ops.sigmoid(x)
    assert np.all(y >= 0.0) and np.all(y <= 1.0)
    assert np.all(np.isfinite(y))
    # matches the textbook form where it does not overflow
    safe = np.linspace(-30, 30, 61)
    assert np.allclose(ops.sigmoid(safe), 1 / (1 + np.exp(-safe)), atol=1e-15)


def test_sigmoid_extreme_inputs_do_not_overflow():
    y = ops.sigmoid(np.array([-1e4, 1e4]))
    assert y[0] == 0.0 and y[1] == 1.0


def _masked_sigmoid(x):
    """The piecewise sigmoid written with a boolean mask, gather and scatter."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_is_within_one_eps_of_the_masked_form(dtype):
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                        88.7, -88.7, 1e4, -1e4], dtype=dtype)
    spread = np.random.default_rng(6).standard_normal(1000) * 30.0
    grid = np.linspace(-50.0, 50.0, 200_001)
    x = np.concatenate([special, spread.astype(dtype), grid.astype(dtype)])
    with np.errstate(all="raise"):
        got = ops.sigmoid(x)
    want = _masked_sigmoid(x)
    assert got.dtype == dtype
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    assert np.abs(got[finite] - want[finite]).max() <= np.finfo(dtype).eps
    # +inf, -inf, 1e4, -1e4 saturate exactly
    assert got[[2, 3, 8, 9]].tolist() == [1.0, 0.0, 1.0, 0.0]


def test_sigmoid_writes_into_out():
    x = np.linspace(-3.0, 3.0, 7)
    out = np.empty(7)
    assert ops.sigmoid(x, out=out) is out
    assert np.array_equal(out, ops.sigmoid(x))
    assert np.array_equal(x, np.linspace(-3.0, 3.0, 7))


def test_sigmoid_grad_matches_finite_differences():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(11)
    gout = rng.standard_normal(11)
    out = ops.sigmoid(x)
    grad = ops.sigmoid_grad(out, gout)
    num = finite_diff(lambda xx: float(gout @ ops.sigmoid(xx)), x)
    assert np.allclose(grad, num, atol=1e-8)


def test_tanh_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(11)
    gout = rng.standard_normal(11)
    grad = ops.tanh_grad(ops.tanh(x), gout)
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
