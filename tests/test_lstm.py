import math

import numpy as np
import pytest

from avloc import checkpoint, lstm, model, ops
from avloc.tree import reduce_rows

import _reference as ref


def make_params(seed=0, d=3, h=4):
    return lstm.init_lstm_params(d, h, np.random.default_rng(seed))


def test_init_shapes_bounds_and_forget_bias():
    p = make_params(d=5, h=3)
    assert p.input_size == 5 and p.hidden_size == 3
    lim_w = math.sqrt(6.0 / (3 + 5))
    lim_u = math.sqrt(6.0 / (3 + 3))
    t = dict(p.tensors())
    for g in lstm.GATES:
        w, u, b = t["w" + g], t["u" + g], t["b" + g]
        assert w.shape == (3, 5) and u.shape == (3, 3) and b.shape == (3,)
        assert np.abs(w).max() <= lim_w and np.abs(u).max() <= lim_u
    assert p.w.shape == (12, 5) and p.u.shape == (12, 3) and p.b.shape == (12,)
    assert np.array_equal(t["bf"], np.ones(3))
    assert not t["bi"].any() and not t["bo"].any() and not t["bc"].any()


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
    h = p.hidden_size
    sig, g = trace.gates[:, :3 * h], trace.gates[:, 3 * h:]  # f, i, o; g
    assert np.all(sig > 0.0) and np.all(sig < 1.0)
    assert np.all(trace.h > -1.0) and np.all(trace.h < 1.0)
    assert np.all(np.abs(g) < 1.0)
    assert np.all(np.isfinite(trace.cs))


def test_encoder_starts_from_zero_state():
    p = make_params(seed=4)
    xs = np.random.default_rng(4).standard_normal((3, 3))
    state, trace = lstm.run_lstm(p, xs)
    assert not trace.hs[0].any() and not trace.cs[0].any()
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
    return loss, reduce_rows([grads]), dh0, dc0


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
    grads = reduce_rows([lstm.lstm_sequence_backward(p, trace, dh_final=s)[0]])
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


def _masked_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _identity_lstm(h, dtype):
    """W four stacked identities, U and b zero: from the zero state, a
    step's pre-activations of every gate are its input."""
    return lstm.LstmParams(np.tile(np.eye(h, dtype=dtype), (4, 1)),
                           np.zeros((4 * h, h), dtype), np.zeros(4 * h, dtype))


def _one_step_gates(x, width):
    """The f, i and o gates, each shaped like x, of one-step LSTMs from the
    zero state whose pre-activations are the values of x, `width` at a
    time (the last LSTM's input padded with zeros)."""
    rows = np.concatenate([x, np.zeros(-x.size % width, x.dtype)]).reshape(-1, width)
    p = _identity_lstm(width, x.dtype)
    traces = [lstm.run_lstm(p, row[None, :])[1] for row in rows]
    return [np.concatenate([t.gates[0, k * width:(k + 1) * width]
                            for t in traces])[:x.size]
            for k in range(3)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_gates_are_within_one_eps_of_the_masked_form(dtype):
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                        88.7, -88.7, 1e4, -1e4], dtype=dtype)
    spread = np.random.default_rng(6).standard_normal(1000) * 30.0
    grid = np.linspace(-50.0, 50.0, 200_001)
    finite = np.concatenate([spread, grid]).astype(dtype)
    with np.errstate(all="raise"):
        # A weight product with an infinite or NaN input spreads NaN over
        # its whole row, so those values each get an LSTM of size 1.
        gates = [np.concatenate(pair) for pair in
                 zip(_one_step_gates(special, 1), _one_step_gates(finite, 512))]
    x = np.concatenate([special, finite])
    want = _masked_sigmoid(x)
    ok = ~np.isnan(want)
    for got in gates:
        assert got.dtype == dtype
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.abs(got[ok] - want[ok]).max() <= np.finfo(dtype).eps
        assert np.all((got[ok] >= 0.0) & (got[ok] <= 1.0))
        # 0 and -0 give exactly one half; +inf, -inf, 1e4, -1e4 saturate
        assert got[[0, 1, 2, 3, 8, 9]].tolist() == [0.5, 0.5, 1.0, 0.0, 1.0, 0.0]


def _plain_lstm(p, xs, h0, c0, dh_steps, dh_final, dc_final):
    """Forward and BPTT as plain numpy expressions, one new array per
    operation: the arithmetic of `run_lstm` and `lstm_sequence_backward`
    in the same order, without their output buffers.  Returns the trace's
    arrays (gates, hs, cs, tanh_c) and the backward's (dZ, dh0, dc0)."""
    h = p.hidden_size
    zx = xs @ p.w.T + p.b
    gates, hs, cs, tanh_cs = [], [h0], [c0], []
    for zx_t in zx:
        z = zx_t + p.u @ hs[-1]
        sig = 0.5 * np.tanh(0.5 * z[:3 * h]) + 0.5
        g = np.tanh(z[3 * h:])
        c = sig[:h] * cs[-1] + sig[h:2 * h] * g
        tanh_c = np.tanh(c)
        gates.append(np.concatenate((sig, g)))
        hs.append(sig[2 * h:] * tanh_c)
        cs.append(c)
        tanh_cs.append(tanh_c)
    gates, hs, cs, tanh_cs = (np.stack(a) for a in (gates, hs, cs, tanh_cs))
    f, i, o, g = (gates[:, k * h:(k + 1) * h] for k in range(4))
    local = np.concatenate((cs[:-1], g, tanh_cs), axis=1)
    sig = gates[:, :3 * h]
    coef = np.concatenate((local * sig * (1.0 - sig), i * (1.0 - g * g)), axis=1)
    k = o * (1.0 - tanh_cs * tanh_cs)
    dz_all = np.empty_like(gates)
    dh_next = np.zeros(h, gates.dtype) + dh_final
    dc_next = np.zeros(h, gates.dtype) + dc_final
    for t in range(len(xs) - 1, -1, -1):
        dh = dh_next if dh_steps is None else dh_next + dh_steps[t]
        dc = dh * k[t] + dc_next
        dz_all[t] = coef[t] * np.concatenate((dc, dc, dh, dc))
        dh_next = p.u.T @ dz_all[t]
        dc_next = dc * f[t]
    return (gates, hs, cs, tanh_cs), (dz_all, dh_next, dc_next)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d,h", [(16, 32), (40, 32), (640, 128)])
def test_unroll_and_bptt_are_bitwise_the_plain_expressions(d, h, dtype):
    steps = 10
    rng = np.random.default_rng(d + h)
    p = lstm.init_lstm_params(d, h, rng, dtype)
    xs = rng.standard_normal((steps, d)).astype(dtype)
    h0, c0, dh_final, dc_final = (rng.standard_normal(h).astype(dtype)
                                  for _ in range(4))
    for dh_steps in (rng.standard_normal((steps, h)).astype(dtype), None):
        want_trace, want_back = _plain_lstm(p, xs, h0, c0, dh_steps,
                                            dh_final, dc_final)
        state, trace = lstm.run_lstm(p, xs, init=lstm.LstmState(h0, c0))
        got_trace = (trace.gates, trace.hs, trace.cs, trace.tanh_c)
        for got, want in zip(got_trace + (state.h, state.c),
                             want_trace + (want_trace[1][-1], want_trace[2][-1])):
            assert got.dtype == dtype and got.tobytes() == want.tobytes()
        grads, dh0, dc0 = lstm.lstm_sequence_backward(
            p, trace, dh_steps=dh_steps, dh_final=dh_final, dc_final=dc_final)
        assert grads.u.x.tobytes() == want_trace[1][:-1].tobytes()
        for got, want in zip((grads.w.g, dh0, dc0), want_back):
            assert got.dtype == dtype and got.tobytes() == want.tobytes()


def _per_gate_lstm(p, xs, h0, c0, dh_steps, dh_final, dc_final):
    """The unpacked algorithm: two matvecs per gate per step forward, and
    per gate one outer product each into dW and dU backward.  Weights are
    copied out into separate per-gate arrays first."""
    t = {name: arr.copy() for name, arr in p.tensors()}
    h_prev, c_prev = h0, c0
    rec = {k: [] for k in ("f", "i", "o", "g", "c", "tanh_c", "h")}
    for x in xs:
        f = _masked_sigmoid(t["wf"] @ x + t["uf"] @ h_prev + t["bf"])
        i = _masked_sigmoid(t["wi"] @ x + t["ui"] @ h_prev + t["bi"])
        o = _masked_sigmoid(t["wo"] @ x + t["uo"] @ h_prev + t["bo"])
        g = np.tanh(t["wc"] @ x + t["uc"] @ h_prev + t["bc"])
        c_prev = f * c_prev + i * g
        tanh_c = np.tanh(c_prev)
        h_prev = o * tanh_c
        for key, val in zip(rec, (f, i, o, g, c_prev, tanh_c, h_prev)):
            rec[key].append(val)
    rec = {key: np.stack(vals) for key, vals in rec.items()}
    grads = {name: np.zeros_like(arr) for name, arr in t.items()}
    dh_next = np.zeros_like(h0) + dh_final
    dc_next = np.zeros_like(c0) + dc_final
    for s in range(len(xs) - 1, -1, -1):
        dh = dh_next + dh_steps[s]
        f, i, o, g = rec["f"][s], rec["i"][s], rec["o"][s], rec["g"][s]
        tanh_c = rec["tanh_c"][s]
        hp = rec["h"][s - 1] if s > 0 else h0
        cp = rec["c"][s - 1] if s > 0 else c0
        do = dh * tanh_c
        dc = (dh * o) * (1.0 - tanh_c * tanh_c) + dc_next
        dz = {"f": (dc * cp) * f * (1.0 - f), "i": (dc * g) * i * (1.0 - i),
              "o": do * o * (1.0 - o), "c": (dc * i) * (1.0 - g * g)}
        dh_next = np.zeros_like(h0)
        for gate, d in dz.items():
            grads["w" + gate] += np.outer(d, xs[s])
            grads["u" + gate] += np.outer(d, hp)
            grads["b" + gate] += d
            dh_next += t["u" + gate].T @ d
        dc_next = dc * f
    return rec, h_prev, c_prev, grads, dh_next, dc_next


def _relative_error(got, want):
    """Largest absolute difference over the largest reference magnitude."""
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-30))


# Hoisting X @ W.T and forming dW, dU, db after the loop sums in another
# order than the per-gate loop, so the packed LSTM agrees with it to
# rounding: 1e-12 in float64, and 1e-5 in float32, where the largest
# relative error over 20 draws of each shape below was 2.3e-6.
PER_GATE_RTOL = {np.float64: 1e-12, np.float32: 1e-5}


@pytest.mark.parametrize("d,h", [(16, 32), (24, 32), (40, 32), (128, 128),
                                 (512, 128), (640, 128)])
def test_packed_lstm_is_bitwise_the_per_gate_algorithm(d, h):
    """The packed LSTM against the per-gate loop, to PER_GATE_RTOL (the
    name is kept from when the two agreed bit for bit), with per-step
    gradients as in the decoder and from the final state only, as in the
    encoders."""
    steps = 10
    for dtype, rtol in PER_GATE_RTOL.items():
        rng = np.random.default_rng(d + h)
        p = lstm.init_lstm_params(d, h, rng, dtype)
        xs = rng.standard_normal((steps, d)).astype(dtype)
        h0, c0, dh_final, dc_final = (rng.standard_normal(h).astype(dtype)
                                      for _ in range(4))
        for dh_steps in (rng.standard_normal((steps, h)).astype(dtype), None):
            rec, h_last, c_last, want, dh0_want, dc0_want = _per_gate_lstm(
                p, xs, h0, c0, np.zeros((steps, h), dtype) if dh_steps is None
                else dh_steps, dh_final, dc_final)
            state, trace = lstm.run_lstm(p, xs, init=lstm.LstmState(h0, c0))
            got_trace = dict(zip(rec, np.split(trace.gates, 4, axis=1)
                                 + [trace.cs[1:], trace.tanh_c, trace.h]))
            for key, arr in rec.items():
                assert _relative_error(got_trace[key], arr) <= rtol, key
            assert _relative_error(state.h, h_last) <= rtol
            assert _relative_error(state.c, c_last) <= rtol
            grads, dh0, dc0 = lstm.lstm_sequence_backward(
                p, trace, dh_steps=dh_steps, dh_final=dh_final,
                dc_final=dc_final)
            got = dict(reduce_rows([grads]).tensors())
            assert got.keys() == want.keys()
            for name in want:
                assert got[name].dtype == dtype, name
                assert _relative_error(got[name], want[name]) <= rtol, name
            assert _relative_error(dh0, dh0_want) <= rtol
            assert _relative_error(dc0, dc0_want) <= rtol


def test_tensors_are_contiguous_views_of_the_packed_arrays(tmp_path):
    params = model.init_model_params(5, 7, 4, 3, np.random.default_rng(3),
                                     np.float32)
    checkpoint.save_model(params, tmp_path / "m.ckpt")
    loaded = checkpoint.load_model(tmp_path / "m.ckpt")
    cast = model.cast_model(loaded, np.float32)
    for bundle in (params, loaded, cast):
        for name, arr in bundle.tensors():
            assert arr.flags.c_contiguous, name
            assert np.shares_memory(arr.reshape(-1), arr), name
        for lp in (bundle.enc_audio, bundle.enc_visual, bundle.decoder):
            for name, arr in lp.tensors():
                assert np.shares_memory(arr, getattr(lp, name[0])), name
    xs = np.random.default_rng(4).standard_normal((3, 5)).astype(np.float32)
    before = lstm.run_lstm(params.enc_audio, xs)[0].h
    dict(params.tensors())["enc_audio.wi"][...] += 0.5
    after = lstm.run_lstm(params.enc_audio, xs)[0].h
    assert not np.array_equal(before, after)
