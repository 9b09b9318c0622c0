import math

import numpy as np
import pytest

from avloc import lstm, ops

import _reference as ref


def make_params(seed=0, d=3, h=4):
    return lstm.init_lstm_params(d, h, np.random.default_rng(seed))


def test_init_shapes_bounds_and_forget_bias():
    p = make_params(d=5, h=3)
    assert p.input_size == 5 and p.hidden_size == 3
    lim_w = math.sqrt(6.0 / (3 + 5))
    lim_u = math.sqrt(6.0 / (3 + 3))
    for g in lstm.GATES:
        w, u, b = getattr(p, "w" + g), getattr(p, "u" + g), getattr(p, "b" + g)
        assert w.shape == (3, 5) and u.shape == (3, 3) and b.shape == (3,)
        assert np.abs(w).max() <= lim_w and np.abs(u).max() <= lim_u
    assert np.array_equal(p.bf, np.ones(3))
    assert not p.bi.any() and not p.bo.any() and not p.bc.any()


def test_init_is_deterministic_per_seed():
    a = make_params(seed=9)
    b = make_params(seed=9)
    for (_, x), (_, y) in zip(a.tensors(), b.tensors()):
        assert np.array_equal(x, y)


def test_init_rejects_bad_sizes():
    with pytest.raises(ValueError):
        lstm.init_lstm_params(0, 4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        lstm.init_lstm_params(4, 0, np.random.default_rng(0))


def test_tensors_order_is_gate_major():
    p = make_params()
    names = [name for name, _ in p.tensors()]
    assert names == ["wf", "uf", "bf", "wi", "ui", "bi",
                     "wo", "uo", "bo", "wc", "uc", "bc"]


def test_step_matches_scalar_reference():
    rng = np.random.default_rng(1)
    p = make_params(seed=1, d=4, h=5)
    x = rng.standard_normal(4)
    h0 = rng.standard_normal(5) * 0.5
    c0 = rng.standard_normal(5)
    state, _ = lstm.run_lstm(p, x[None, :], init=lstm.LstmState(h0, c0))
    want_h, want_c = ref.lstm_step(p, x, h0, c0)
    assert np.allclose(state.h, want_h, atol=1e-14)
    assert np.allclose(state.c, want_c, atol=1e-14)


def test_gate_and_hidden_ranges():
    rng = np.random.default_rng(2)
    p = make_params(seed=2, d=6, h=8)
    xs = rng.standard_normal((25, 6)) * 5.0
    state, trace = lstm.run_lstm(p, xs)
    for gate in (trace.f, trace.i, trace.o):
        assert np.all(gate > 0.0) and np.all(gate < 1.0)
    assert np.all(trace.h > -1.0) and np.all(trace.h < 1.0)
    assert np.all(np.abs(trace.g) < 1.0)
    assert np.all(np.isfinite(trace.c))


def test_encoder_starts_from_zero_state():
    p = make_params(seed=4)
    xs = np.random.default_rng(4).standard_normal((3, 3))
    state, trace = lstm.run_lstm(p, xs)
    assert not trace.h0.any() and not trace.c0.any()
    explicit, _ = lstm.run_lstm(p, xs, init=lstm.LstmState(np.zeros(4), np.zeros(4)))
    assert np.array_equal(state.h, explicit.h)


def test_sequence_matches_scalar_reference():
    rng = np.random.default_rng(5)
    p = make_params(seed=5, d=4, h=3)
    xs = rng.standard_normal((6, 4))
    state, trace = lstm.run_lstm(p, xs)
    hs, h_last, c_last = ref.run_lstm(p, xs)
    assert np.allclose(trace.h, hs, atol=1e-13)
    assert np.allclose(state.h, h_last, atol=1e-13)
    assert np.allclose(state.c, c_last, atol=1e-13)


def test_shape_errors():
    p = make_params()
    with pytest.raises(ops.ShapeError):
        lstm.run_lstm(p, np.zeros((2, 5)))
    with pytest.raises(ops.ShapeError):
        lstm.run_lstm(p, np.zeros((2, 3)),
                      init=lstm.LstmState(np.zeros(3), np.zeros(4)))
    with pytest.raises(ValueError):
        lstm.run_lstm(p, np.zeros((0, 3)))


def _loss_and_grads(p, xs, r, s, q, init=None):
    """Scalar probe loss <r, h> + <s, h_T> + <q, c_T> and its gradients."""
    state, trace = lstm.run_lstm(p, xs, init=init)
    loss = float((trace.h * r).sum() + state.h @ s + state.c @ q)
    grads, dh0, dc0 = lstm.lstm_sequence_backward(
        p, trace, dh_steps=r, dh_final=s, dc_final=q)
    return loss, grads, dh0, dc0


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(6)
    d, h, steps = 3, 4, 5
    p = make_params(seed=6, d=d, h=h)
    xs = rng.standard_normal((steps, d))
    r = rng.standard_normal((steps, h))
    s = rng.standard_normal(h)
    q = rng.standard_normal(h)
    h0 = rng.standard_normal(h) * 0.3
    c0 = rng.standard_normal(h) * 0.3
    init = lstm.LstmState(h0, c0)
    _, grads, dh0, dc0 = _loss_and_grads(p, xs, r, s, q, init)

    eps = 1e-6

    def numeric(arr):
        num = np.zeros_like(arr)
        for j in range(arr.size):
            orig = arr.flat[j]
            arr.flat[j] = orig + eps
            up = _loss_and_grads(p, xs, r, s, q, lstm.LstmState(h0, c0))[0]
            arr.flat[j] = orig - eps
            down = _loss_and_grads(p, xs, r, s, q, lstm.LstmState(h0, c0))[0]
            arr.flat[j] = orig
            num.flat[j] = (up - down) / (2 * eps)
        return num

    for name, arr in p.tensors():
        got = dict(grads.tensors())[name]
        assert np.allclose(got, numeric(arr), atol=1e-7), name
    assert np.allclose(dh0, numeric(h0), atol=1e-7)
    assert np.allclose(dc0, numeric(c0), atol=1e-7)


def test_backward_final_state_only():
    rng = np.random.default_rng(7)
    p = make_params(seed=7)
    xs = rng.standard_normal((4, 3))
    s = rng.standard_normal(4)
    state, trace = lstm.run_lstm(p, xs)
    grads, _, _ = lstm.lstm_sequence_backward(p, trace, dh_final=s)
    eps = 1e-6
    for name, arr in p.tensors():
        num = np.zeros_like(arr)
        for j in range(arr.size):
            orig = arr.flat[j]
            arr.flat[j] = orig + eps
            up = float(lstm.run_lstm(p, xs)[0].h @ s)
            arr.flat[j] = orig - eps
            down = float(lstm.run_lstm(p, xs)[0].h @ s)
            arr.flat[j] = orig
            num.flat[j] = (up - down) / (2 * eps)
        assert np.allclose(dict(grads.tensors())[name], num, atol=1e-7), name


def test_backward_rejects_mismatched_dh_steps():
    p = make_params()
    _, trace = lstm.run_lstm(p, np.zeros((3, 3)))
    with pytest.raises(ops.ShapeError):
        lstm.lstm_sequence_backward(p, trace, dh_steps=np.zeros((2, 4)))
