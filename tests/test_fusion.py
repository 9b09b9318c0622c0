import math
from types import SimpleNamespace

import numpy as np
import pytest

from avloc import fusion, model, ops, trainer
from avloc.lstm import LstmState
from avloc.tree import reduce_rows

import _reference as ref


def make_fusion(seed=0, h=4):
    return fusion.init_fusion_params(h, np.random.default_rng(seed))


class Pair(fusion.MlpPair):
    NAMES = ("first", "second")


def make_pair(rng, input_size, hidden_size, output_size, dtype=np.float64):
    """A pair of distinct widths, non-zero biases included."""
    p = fusion.init_pair(Pair, input_size, hidden_size, output_size, rng, dtype)
    for arr in (p.b1, p.b2):
        arr[...] = rng.standard_normal(arr.shape)
    return p


def test_pair_forward_matches_scalar_reference():
    rng = np.random.default_rng(0)
    p = make_pair(rng, 3, 5, 2)
    x = rng.standard_normal((2, 3, 1, 3))
    y, _ = fusion.pair_forward(p, x)
    for k, name in enumerate(Pair.NAMES):
        for n in range(3):
            want = ref.mlp(ref.track_mlp(p, name), x[k, n, 0])
            assert np.allclose(y[k, n, 0], want, atol=1e-14), (name, n)


def test_pair_forward_rejects_an_input_of_the_wrong_width():
    p = make_pair(np.random.default_rng(0), 3, 5, 2)
    for x in (np.zeros((2, 1, 1, 4)), np.zeros((2, 1, 1, 2)),
              np.zeros((3, 1, 1, 3)), np.zeros((2, 1, 3)), np.float64(1.0)):
        with pytest.raises(ops.ShapeError):
            fusion.pair_forward(p, x)


def test_pair_backward_matches_finite_differences():
    rng = np.random.default_rng(1)
    p = make_pair(rng, 4, 6, 3)
    x = rng.standard_normal((2, 2, 1, 4))
    gout = rng.standard_normal((2, 2, 3))

    def loss():
        return float((fusion.pair_forward(p, x)[0][:, :, 0] * gout).sum())

    _, hidden = fusion.pair_forward(p, x)
    grads, dx = fusion.pair_backward(p, x[:, :, 0], hidden[:, :, 0], gout)
    analytic = dict(reduce_rows([grads]).tensors(), x=dx[:, :, None])
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
        assert np.allclose(analytic[name], num, atol=1e-7), name


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


def fusion_video(p, rng, dtype):
    """fuse and fuse_backward on random states, against the per-track
    expressions: ((got, want) array pairs, factored grads, each track's
    expected gradient rows)."""
    a, v, gout = (rng.standard_normal((2, p.w1.shape[1])).astype(dtype)
                  for _ in range(3))
    fused, trace = fusion.fuse(p, LstmState(*a), LstmState(*v))
    grads, d_a, d_v = fusion.fuse_backward(p, trace, *gout)
    checks, rows = [], []
    for k, track in enumerate(fusion.TRACKS):
        g = ref.track_mlp(p, track)
        want, _, _ = ref.fuse_track_expression(g, a[k], v[k])
        want_a, want_v, want_rows = ref.fuse_track_backward_expression(
            g, a[k], v[k], gout[k])
        checks += [((fused.h, fused.c)[k], want), ((d_a.h, d_a.c)[k], want_a),
                   ((d_v.h, d_v.c)[k], want_v)]
        rows.append(want_rows)
    return checks, grads, rows


def heads_video(p, rng, dtype):
    """aux_objective on random final states, against the per-head
    expressions: ((got, want) array pairs, factored grads, each head's
    expected gradient rows)."""
    states = rng.standard_normal((2, p.w1.shape[1])).astype(dtype)
    label = (rng.random(p.w2.shape[1]) < 0.5).astype(dtype)
    trace = SimpleNamespace(audio_state=LstmState(states[0], None),
                            visual_state=LstmState(states[1], None))
    loss, grads, dh_a, dh_v = trainer.aux_objective(p, trace, label, 0.7)
    checks, rows, losses = [], [], []
    for k, (head, dh) in enumerate(zip(trainer.AuxHeads.NAMES, (dh_a, dh_v))):
        g = ref.track_mlp(p, head)
        y, hidden = ref.mlp_expression(g, states[k])
        head_loss, dout = model.bce_on_softmax(y, label)
        dx, want_rows = ref.mlp_backward_expression(
            g, states[k][None], hidden[None], 0.7 * dout[None])
        checks.append((dh, dx[0]))
        rows.append(want_rows)
        losses.append(head_loss)
    checks.append((np.float64(loss), np.float64(0.7 * (losses[0] + losses[1]))))
    return checks, grads.bundle, rows


# (user, h, MLP output width): the fusion block is h -> h -> h, the heads
# h -> h -> C+1 at the acceptance (C = 4) and AVE (C = 28) shapes.
@pytest.mark.parametrize("user,hidden,out", [
    ("fusion", 1, 1), ("fusion", 4, 4), ("fusion", 32, 32), ("fusion", 128, 128),
    ("heads", 32, 5), ("heads", 128, 29)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_packed_block_is_bitwise_the_per_track_expressions(dtype, user, hidden, out):
    """Both MLPs of a pair and all their inputs in one batched product per
    step give the bits of the per-MLP expressions: the fusion block's fused
    states and state gradients, the heads' loss and state gradients, every
    gradient row, and the dense gradient over a batch."""
    rng = np.random.default_rng(hidden + out)
    if user == "fusion":
        p, video = fusion.init_fusion_params(hidden, rng, dtype), fusion_video
    else:
        p, video = trainer.init_aux_heads(hidden, out - 1, rng, dtype), heads_video
    for arr in (p.b1, p.b2):  # non-zero biases
        arr[...] = rng.standard_normal(arr.shape)
    videos = []
    for _ in range(3):
        checks, grads, rows = video(p, rng, dtype)
        for j, (got, want) in enumerate(checks):
            assert got.tobytes() == want.tobytes(), j
        for k, mlp_rows in enumerate(rows):
            for name, (want_g, want_x) in mlp_rows.items():
                leaf = getattr(grads, name)
                assert leaf.g[k].tobytes() == want_g.tobytes(), (k, name)
                if want_x is not None:
                    assert leaf.x[k].tobytes() == want_x.tobytes(), (k, name)
        videos.append(grads)
    dense = dict(reduce_rows(videos, 0.5).tensors())
    for k, mlp in enumerate(p.NAMES):
        for name in ("w1", "b1", "w2", "b2"):
            leaves = [getattr(grads, name) for grads in videos]
            g = np.concatenate([leaf.g[k] for leaf in leaves])
            want = (g.sum(axis=0) if leaves[0].x is None
                    else g.T @ np.concatenate([leaf.x[k] for leaf in leaves]))
            want *= 0.5
            assert dense[mlp + "." + name].tobytes() == want.tobytes(), (mlp, name)


def test_tensor_views_write_into_the_packed_storage():
    """Checkpoint loading and finite differences write through tensors()."""
    p = make_fusion(h=3)
    for j, (_, arr) in enumerate(p.tensors()):
        arr[...] = j
    for j, name in enumerate(("w1", "b1", "w2", "b2")):
        packed = getattr(p, name)
        assert (packed[0] == j).all() and (packed[1] == j + 4).all(), name
    assert [name for name, _ in p.arrays()] == [name for name, _ in p.tensors()]


@pytest.mark.parametrize("init,sizes", [
    (lambda rng: fusion.init_fusion_params(5, rng), (5, 5, 5)),
    (lambda rng: trainer.init_aux_heads(5, 3, rng), (5, 5, 4)),
], ids=["fusion", "heads"])
def test_packed_init_draws_the_first_mlp_then_the_second(init, sizes):
    """Each MLP draws its Glorot-uniform w1, then w2; the first MLP (the
    hidden track, the audio head) before the second.  Biases start at 0."""
    packed = init(np.random.default_rng(7))
    rng = np.random.default_rng(7)
    want = []
    for mlp in packed.NAMES:
        arrays = {}
        for name, rows, cols in (("w1", sizes[1], sizes[0]),
                                 ("w2", sizes[2], sizes[1])):
            lim = math.sqrt(6.0 / (rows + cols))
            arrays[name] = rng.uniform(-lim, lim, size=(rows, cols))
            arrays["b" + name[1]] = np.zeros(rows)
        want += [(mlp + "." + name, arrays[name]) for name in ("w1", "b1", "w2", "b2")]
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
