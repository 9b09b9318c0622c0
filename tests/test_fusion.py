import numpy as np
import pytest

from avloc import fusion, ops
from avloc.lstm import LstmState
from avloc.tree import reduce_rows

import _reference as ref


def make_fusion(seed=0, h=4):
    return fusion.init_fusion_params(h, np.random.default_rng(seed))


def test_mlp_forward_matches_scalar_reference():
    rng = np.random.default_rng(0)
    p = fusion.init_mlp_params(3, 5, 2, rng)
    x = rng.standard_normal(3)
    y, _ = fusion.mlp_forward(p, x)
    assert np.allclose(y, ref.mlp(p, x), atol=1e-14)


def test_mlp_forward_rejects_an_input_of_the_wrong_width():
    p = fusion.init_mlp_params(3, 5, 2, np.random.default_rng(0))
    for x in (np.zeros(4), np.zeros(2), np.float64(1.0)):
        with pytest.raises(ops.ShapeError):
            fusion.mlp_forward(p, x)


def test_mlp_backward_matches_finite_differences():
    rng = np.random.default_rng(1)
    p = fusion.init_mlp_params(4, 6, 3, rng)
    x = rng.standard_normal(4)
    gout = rng.standard_normal(3)

    def loss():
        return float(fusion.mlp_forward(p, x)[0] @ gout)

    y, trace = fusion.mlp_forward(p, x)
    grads, dx = fusion.mlp_backward(p, trace, gout)
    eps = 1e-6
    for name, arr in list(p.tensors()) + [("x", x)]:
        num = np.zeros_like(arr)
        for j in range(arr.size):
            orig = arr.flat[j]
            arr.flat[j] = orig + eps
            up = loss()
            arr.flat[j] = orig - eps
            down = loss()
            arr.flat[j] = orig
            num.flat[j] = (up - down) / (2 * eps)
        got = dx if name == "x" else dict(reduce_rows([grads]).tensors())[name]
        assert np.allclose(got, num, atol=1e-7), name


def test_fuse_matches_scalar_reference():
    rng = np.random.default_rng(2)
    p = make_fusion(seed=2, h=5)
    a = LstmState(rng.standard_normal(5), rng.standard_normal(5))
    v = LstmState(rng.standard_normal(5), rng.standard_normal(5))
    fused, _ = fusion.fuse(p, a, v)
    assert np.allclose(fused.h, ref.fuse_track(ref.track_mlp(p, "g_h"), a.h, v.h),
                       atol=1e-14)
    assert np.allclose(fused.c, ref.fuse_track(ref.track_mlp(p, "g_c"), a.c, v.c),
                       atol=1e-14)


@pytest.mark.parametrize("hidden", [1, 4, 32, 128])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_packed_block_is_bitwise_the_per_track_expressions(dtype, hidden):
    """Both tracks and modalities in one batched product per step give the
    bits of the per-track, per-modality expressions: fused states, state
    gradients, every gradient row, and the dense gradient over a batch."""
    rng = np.random.default_rng(hidden)
    p = fusion.init_fusion_params(hidden, rng, dtype)
    for arr in (p.b1, p.b2):  # non-zero biases
        arr[...] = rng.standard_normal(arr.shape)
    videos = []
    for _ in range(3):
        a, v, gout = (rng.standard_normal((2, hidden)).astype(dtype)
                      for _ in range(3))
        fused, trace = fusion.fuse(p, LstmState(*a), LstmState(*v))
        grads, d_a, d_v = fusion.fuse_backward(p, trace, *gout)
        for k, track in enumerate(fusion.TRACKS):
            g = ref.track_mlp(p, track)
            want, _, _ = ref.fuse_track_expression(g, a[k], v[k])
            assert (fused.h, fused.c)[k].tobytes() == want.tobytes(), track
            want_a, want_v, rows = ref.fuse_track_backward_expression(
                g, a[k], v[k], gout[k])
            assert (d_a.h, d_a.c)[k].tobytes() == want_a.tobytes(), track
            assert (d_v.h, d_v.c)[k].tobytes() == want_v.tobytes(), track
            for name, (want_g, want_x) in rows.items():
                leaf = getattr(grads, name)
                assert leaf.g[k].tobytes() == want_g.tobytes(), (track, name)
                if want_x is not None:
                    assert leaf.x[k].tobytes() == want_x.tobytes(), (track, name)
        videos.append(grads)
    dense = dict(reduce_rows(videos, 0.5).tensors())
    for k, track in enumerate(fusion.TRACKS):
        for name in ("w1", "b1", "w2", "b2"):
            leaves = [getattr(grads, name) for grads in videos]
            g = np.concatenate([leaf.g[k] for leaf in leaves])
            want = (g.sum(axis=0) if leaves[0].x is None
                    else g.T @ np.concatenate([leaf.x[k] for leaf in leaves]))
            want *= 0.5
            assert dense[track + "." + name].tobytes() == want.tobytes(), (track, name)


def test_tensor_views_write_into_the_packed_storage():
    """Checkpoint loading and finite differences write through tensors()."""
    p = make_fusion(h=3)
    for j, (_, arr) in enumerate(p.tensors()):
        arr[...] = j
    for j, name in enumerate(("w1", "b1", "w2", "b2")):
        packed = getattr(p, name)
        assert (packed[0] == j).all() and (packed[1] == j + 4).all(), name
    assert [name for name, _ in p.arrays()] == [name for name, _ in p.tensors()]


def test_packed_init_draws_the_hidden_track_then_the_cell_track():
    packed = fusion.init_fusion_params(5, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    tracks = [fusion.init_mlp_params(5, 5, 5, rng) for _ in fusion.TRACKS]
    want = [(track + "." + name, arr) for track, mlp in zip(fusion.TRACKS, tracks)
            for name, arr in mlp.tensors()]
    got = list(packed.tensors())
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, x), (_, y) in zip(got, want):
        assert x.tobytes() == y.tobytes(), name


def test_fused_state_bounded_by_two():
    # each track output is a sum of two tanh values
    rng = np.random.default_rng(3)
    p = make_fusion(seed=3, h=6)
    for _ in range(20):
        a = LstmState(rng.standard_normal(6) * 3, rng.standard_normal(6) * 3)
        v = LstmState(rng.standard_normal(6) * 3, rng.standard_normal(6) * 3)
        fused, _ = fusion.fuse(p, a, v)
        assert np.all(np.abs(fused.h) < 2.0)
        assert np.all(np.abs(fused.c) < 2.0)


def test_modality_swap_symmetry_is_bitwise():
    rng = np.random.default_rng(4)
    p = make_fusion(seed=4, h=8)
    a = LstmState(rng.standard_normal(8), rng.standard_normal(8))
    v = LstmState(rng.standard_normal(8), rng.standard_normal(8))
    ab, _ = fusion.fuse(p, a, v)
    ba, _ = fusion.fuse(p, v, a)
    assert np.array_equal(ab.h, ba.h)
    assert np.array_equal(ab.c, ba.c)


def test_fuse_rejects_mismatched_states():
    p = make_fusion()
    with pytest.raises(ops.ShapeError):
        fusion.fuse(p, LstmState(np.zeros(4), np.zeros(4)),
                    LstmState(np.zeros(5), np.zeros(5)))


def test_fuse_backward_matches_finite_differences():
    rng = np.random.default_rng(5)
    p = make_fusion(seed=5, h=4)
    ah = rng.standard_normal(4)
    ac = rng.standard_normal(4)
    vh = rng.standard_normal(4)
    vc = rng.standard_normal(4)
    dh = rng.standard_normal(4)
    dc = rng.standard_normal(4)

    def loss():
        fused, _ = fusion.fuse(p, LstmState(ah, ac), LstmState(vh, vc))
        return float(fused.h @ dh + fused.c @ dc)

    fused, trace = fusion.fuse(p, LstmState(ah, ac), LstmState(vh, vc))
    grads, d_a, d_v = fusion.fuse_backward(p, trace, dh, dc)
    analytic = dict(reduce_rows([grads]).tensors())
    analytic.update({"ah": d_a.h, "ac": d_a.c, "vh": d_v.h, "vc": d_v.c})
    inputs = list(p.tensors()) + [("ah", ah), ("ac", ac), ("vh", vh), ("vc", vc)]
    eps = 1e-6
    for name, arr in inputs:
        num = np.zeros_like(arr)
        for j in range(arr.size):
            orig = arr.flat[j]
            arr.flat[j] = orig + eps
            up = loss()
            arr.flat[j] = orig - eps
            down = loss()
            arr.flat[j] = orig
            num.flat[j] = (up - down) / (2 * eps)
        assert np.allclose(analytic[name], num, atol=1e-7), name


def test_tensor_names_carry_track_prefix():
    p = make_fusion()
    names = [name for name, _ in p.tensors()]
    assert names == ["g_h.w1", "g_h.b1", "g_h.w2", "g_h.b2",
                     "g_c.w1", "g_c.b1", "g_c.w2", "g_c.b2"]
