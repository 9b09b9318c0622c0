import math
from types import SimpleNamespace

import numpy as np
import pytest

from avloc import model, optim, trainer


def flat(arrays: dict):
    """The arrays copied into one flat buffer, and {name: view} of it."""
    buf = np.concatenate([arr.ravel() for arr in arrays.values()])
    views, offset = {}, 0
    for name, arr in arrays.items():
        views[name] = buf[offset:offset + arr.size].reshape(arr.shape)
        offset += arr.size
    return buf, views


def step(params: dict, grads: dict, state=None, lr=1e-3, clip_norm=5.0):
    """One chunked step over flat copies of params and grads; returns
    (params, grads, state), the first two as {name: view} after the step."""
    p, p_views = flat(params)
    g, g_views = flat(grads)
    state = state or optim.AdamState.for_params(p)
    optim.adam_step(p, g, g_views, state, lr, clip_norm)
    return p_views, g_views, state


def test_zero_grads_leave_params_unchanged():
    params, _, state = step({"w": np.array([1.0, -2.0, 3.0])}, {"w": np.zeros(3)})
    assert np.array_equal(params["w"], [1.0, -2.0, 3.0])
    assert state.step == 1


def test_first_step_matches_closed_form():
    g = np.array([0.3, -1.7, 0.0, 2.5])
    params, _, _ = step({"w": np.zeros(4)}, {"w": g}, lr=0.01, clip_norm=None)
    want = -0.01 * g / (np.abs(g) + optim.EPS)
    assert np.allclose(params["w"], want, atol=1e-12)


def test_clip_scales_gradients_globally():
    zeros = {"a": np.zeros(2), "b": np.zeros(2)}
    _, grads, _ = step(zeros, {"a": np.array([6.0, 8.0]), "b": np.zeros(2)},
                       clip_norm=1.0)  # norm 10
    assert np.allclose(grads["a"], [0.6, 0.8], atol=1e-12)
    _, grads, _ = step({"a": np.zeros(2)}, {"a": np.array([0.6, 0.8])},
                       clip_norm=5.0)  # under the cap: untouched
    assert np.array_equal(grads["a"], [0.6, 0.8])


def test_clip_can_be_disabled():
    params, grads, _ = step({"w": np.zeros(2)}, {"w": np.array([300.0, 400.0])},
                            clip_norm=None)
    # with clipping disabled the first step still has magnitude lr
    assert np.allclose(np.abs(params["w"]), 1e-3, atol=1e-9)
    assert np.array_equal(grads["w"], [300.0, 400.0])


def test_nan_gradient_aborts_and_names_tensor():
    params = {"w": np.zeros(2), "v": np.zeros(2), "u": np.zeros(3)}
    grads = {"w": np.zeros(2), "v": np.array([1.0, np.nan]),
             "u": np.array([np.inf, 0.0, 0.0])}
    p, _ = flat(params)
    g, g_views = flat(grads)
    state = optim.AdamState.for_params(p)
    with pytest.raises(optim.NanGradError) as info:
        optim.adam_step(p, g, g_views, state, 1e-3, 5.0)
    assert info.value.tensor == "v"
    assert "v" in str(info.value)
    # nothing moved
    assert not p.any() and not state.m.any() and state.step == 0


def test_buffers_of_different_sizes_are_an_error():
    p, g = np.zeros(3), np.zeros(2)
    with pytest.raises(ValueError):
        optim.adam_step(p, g, {"w": g}, optim.AdamState.for_params(p), 1e-3, 5.0)


def test_updates_are_deterministic():
    def run():
        rng = np.random.default_rng(5)
        p, _ = flat({"w": np.ones((3, 3)), "b": np.zeros(3)})
        state = optim.AdamState.for_params(p)
        for _ in range(25):
            g, g_views = flat({"w": rng.standard_normal((3, 3)),
                               "b": rng.standard_normal(3)})
            optim.adam_step(p, g, g_views, state, 1e-3, 5.0)
        return p

    assert np.array_equal(run(), run())


def test_moments_track_running_averages():
    p, _ = flat({"w": np.zeros(1)})
    state = optim.AdamState.for_params(p)
    g = np.array([2.0])
    for _ in range(2):
        grads = g.copy()
        optim.adam_step(p, grads, {"w": grads}, state, 1e-3, None)
    m_want = 0.1 * g + 0.9 * 0.1 * g  # (1-b1) g accumulated twice
    v_want = 0.001 * g * g + 0.999 * 0.001 * g * g
    assert np.allclose(state.m, m_want, atol=1e-12)
    assert np.allclose(state.v, v_want, atol=1e-12)
    assert state.step == 2


def _adam_expression(params, grads, state, lr, clip_norm):
    """The Adam update as whole-array expressions, one temporary per
    operation, array by array, after clipping to the global norm as the sum
    of one dot product per array in order: the reference for the chunked
    step.  Returns whether clipping fired."""
    beta1, beta2, eps = optim.BETA1, optim.BETA2, optim.EPS
    fired = False
    if clip_norm is not None:
        total = 0.0
        for g in grads.values():
            total += float(np.dot(g.ravel(), g.ravel()))
        norm = math.sqrt(total)
        fired = norm > clip_norm
        if fired:
            for g in grads.values():
                g *= clip_norm / norm
    state.step += 1
    bc1 = 1.0 - beta1 ** state.step
    bc2 = 1.0 - beta2 ** state.step
    for name, p in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return fired


@pytest.mark.parametrize("clip_norm,fires", [(None, False), (1e-2, True),
                                             (1e6, False)],
                         ids=["no-clip", "clip-fires", "clip-idle"])
@pytest.mark.parametrize("hidden", [1, 4, 32, 128])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_chunked_step_is_bitwise_the_expression(dtype, hidden, clip_norm, fires):
    """Over a model's arrays at hidden size h and a leading array that
    crosses the first chunk boundary, every parameter, moment and (clipped)
    gradient equals the per-array expression bit for bit."""
    rng = np.random.default_rng(hidden)
    net = model.init_model_params(16, 24, hidden, 4, rng, dtype)
    shapes = {"pad": (251, 263)}
    shapes.update((name, arr.shape) for name, arr in net.arrays())
    sizes = np.cumsum([math.prod(shape) for shape in shapes.values()])
    assert sizes[0] > optim.CHUNK and sizes[-1] > optim.CHUNK
    start = {name: rng.standard_normal(shape).astype(dtype)
             for name, shape in shapes.items()}
    want = {name: arr.copy() for name, arr in start.items()}
    want_state = SimpleNamespace(
        step=0, m={name: np.zeros_like(arr) for name, arr in want.items()},
        v={name: np.zeros_like(arr) for name, arr in want.items()})
    got, got_views = flat(start)
    got_state = optim.AdamState.for_params(got)
    for _ in range(4):
        grads = {name: rng.standard_normal(shape).astype(dtype)
                 for name, shape in shapes.items()}
        g, g_views = flat(grads)
        optim.adam_step(got, g, g_views, got_state, 3e-3, clip_norm)
        assert _adam_expression(want, grads, want_state, 3e-3, clip_norm) == fires
        m_got = dict(zip(shapes, np.split(got_state.m, sizes[:-1])))
        v_got = dict(zip(shapes, np.split(got_state.v, sizes[:-1])))
        for name in shapes:
            assert g_views[name].tobytes() == grads[name].tobytes(), name
            assert got_views[name].tobytes() == want[name].tobytes(), name
            assert m_got[name].tobytes() == want_state.m[name].tobytes(), name
            assert v_got[name].tobytes() == want_state.v[name].tobytes(), name


def test_step_allocates_no_whole_array_temporaries():
    """One Adam step over the AVE-shape model (d_a=128, d_v=512, h=128,
    C=28) and its auxiliary heads, in float32, allocates less than two
    bytes per parameter: the finiteness check's one-byte mask, and no
    temporary of the parameters' dtype, which the chunk scratch buffers
    replace."""
    import tracemalloc

    from avloc import tree

    rng = np.random.default_rng(0)
    params = model.init_model_params(128, 512, 128, 28, rng, np.float32)
    heads = trainer.init_aux_heads(128, 28, rng, np.float32)
    buf = tree.pack([params, heads])
    grads = rng.standard_normal(buf.size).astype(np.float32)
    views = {}
    for bundle in tree.flat_views(grads, [params, heads]):
        views.update(bundle.arrays())
    state = optim.AdamState.for_params(buf)
    tracemalloc.start()
    try:
        optim.adam_step(buf, grads, views, state, 1e-3, 5.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert buf.size > 8 * optim.CHUNK
    assert peak < 2 * buf.size, (peak, buf.size)
