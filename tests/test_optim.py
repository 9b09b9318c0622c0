import numpy as np
import pytest

from avloc import optim


def make_state(params):
    return optim.AdamState.for_params(params)


def test_zero_grads_leave_params_unchanged():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    grads = {"w": np.zeros(3)}
    state = make_state(params)
    optim.adam_step(params, grads, state, optim.AdamConfig())
    assert np.array_equal(params["w"], [1.0, -2.0, 3.0])
    assert state.step == 1


def test_first_step_matches_closed_form():
    cfg = optim.AdamConfig(lr=0.01, clip_norm=None)
    g = np.array([0.3, -1.7, 0.0, 2.5])
    params = {"w": np.zeros(4)}
    state = make_state(params)
    optim.adam_step(params, {"w": g.copy()}, state, cfg)
    want = -cfg.lr * g / (np.abs(g) + cfg.eps)
    assert np.allclose(params["w"], want, atol=1e-12)


def test_clip_scales_gradients_globally():
    grads = {"a": np.array([6.0, 8.0]), "b": np.zeros(2)}  # norm 10
    norm = optim.clip_grads(grads, 1.0)
    assert abs(norm - 10.0) < 1e-12
    assert np.allclose(grads["a"], [0.6, 0.8], atol=1e-12)
    grads = {"a": np.array([0.6, 0.8])}
    optim.clip_grads(grads, 5.0)  # under the cap: untouched
    assert np.array_equal(grads["a"], [0.6, 0.8])


def test_clip_can_be_disabled():
    params = {"w": np.zeros(2)}
    big = {"w": np.array([300.0, 400.0])}
    state = make_state(params)
    optim.adam_step(params, big, state, optim.AdamConfig(clip_norm=None))
    # with clipping disabled the first step still has magnitude lr
    assert np.allclose(np.abs(params["w"]), optim.AdamConfig().lr, atol=1e-9)
    assert np.array_equal(big["w"], [300.0, 400.0])


def test_nan_gradient_aborts_and_names_tensor():
    params = {"w": np.zeros(2), "v": np.zeros(2)}
    grads = {"w": np.zeros(2), "v": np.array([1.0, np.nan])}
    with pytest.raises(optim.NanGradError) as info:
        optim.adam_step(params, grads, make_state(params), optim.AdamConfig())
    assert info.value.tensor == "v"
    assert "v" in str(info.value)


def test_key_mismatch_is_an_error():
    params = {"w": np.zeros(2)}
    with pytest.raises(KeyError):
        optim.adam_step(params, {"x": np.zeros(2)}, make_state(params),
                        optim.AdamConfig())


def test_updates_are_deterministic():
    def run():
        rng = np.random.default_rng(5)
        params = {"w": np.ones((3, 3)), "b": np.zeros(3)}
        state = make_state(params)
        cfg = optim.AdamConfig()
        for _ in range(25):
            grads = {"w": rng.standard_normal((3, 3)),
                     "b": rng.standard_normal(3)}
            optim.adam_step(params, grads, state, cfg)
        return params

    one, two = run(), run()
    assert np.array_equal(one["w"], two["w"])
    assert np.array_equal(one["b"], two["b"])


def test_moments_track_running_averages():
    params = {"w": np.zeros(1)}
    state = make_state(params)
    cfg = optim.AdamConfig(clip_norm=None)
    g = np.array([2.0])
    optim.adam_step(params, {"w": g.copy()}, state, cfg)
    optim.adam_step(params, {"w": g.copy()}, state, cfg)
    m_want = 0.1 * g + 0.9 * 0.1 * g  # (1-b1) g accumulated twice
    v_want = 0.001 * g * g + 0.999 * 0.001 * g * g
    assert np.allclose(state.m["w"], m_want, atol=1e-12)
    assert np.allclose(state.v["w"], v_want, atol=1e-12)
    assert state.step == 2


def _adam_expression(params, grads, state, cfg):
    """The Adam update as whole-array expressions, one temporary per
    operation: the reference for the in-place step."""
    state.step += 1
    bc1 = 1.0 - cfg.beta1 ** state.step
    bc2 = 1.0 - cfg.beta2 ** state.step
    for name, p in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        p -= cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_step_is_bitwise_the_expression(dtype):
    rng = np.random.default_rng(11)
    shapes = {"w": (512, 640), "b": (640,)}
    start = {name: rng.standard_normal(shape).astype(dtype)
             for name, shape in shapes.items()}
    got = {name: arr.copy() for name, arr in start.items()}
    want = {name: arr.copy() for name, arr in start.items()}
    got_state, want_state = make_state(got), make_state(want)
    cfg = optim.AdamConfig(lr=3e-3, clip_norm=None)
    for _ in range(5):
        grads = {name: rng.standard_normal(shape).astype(dtype)
                 for name, shape in shapes.items()}
        kept = {name: g.copy() for name, g in grads.items()}
        optim.adam_step(got, grads, got_state, cfg)
        _adam_expression(want, kept, want_state, cfg)
        for name in shapes:
            assert np.array_equal(grads[name], kept[name]), name  # not written
            assert got[name].tobytes() == want[name].tobytes(), name
            assert got_state.m[name].tobytes() == want_state.m[name].tobytes()
            assert got_state.v[name].tobytes() == want_state.v[name].tobytes()


def test_step_allocates_no_whole_array_temporaries():
    """One Adam step over the AVE-shape model (d_a=128, d_v=512, h=128,
    C=28) and its auxiliary heads, in float32, peaks at no more than twice
    the largest parameter: the two scratch buffers, not one temporary per
    operation."""
    import tracemalloc

    from avloc import model, trainer

    rng = np.random.default_rng(0)
    params = model.init_model_params(128, 512, 128, 28, rng, np.float32)
    heads = trainer.init_aux_heads(128, 28, rng, np.float32)
    opt = dict(params.arrays(), **dict(heads.arrays()))
    grads = {name: rng.standard_normal(arr.shape).astype(np.float32)
             for name, arr in opt.items()}
    state = make_state(opt)
    largest = max(arr.nbytes for arr in opt.values())
    tracemalloc.start()
    try:
        optim.adam_step(opt, grads, state, optim.AdamConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * largest, (peak, largest)
