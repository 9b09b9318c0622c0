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
    assert np.allclose(fused.h, ref.fuse_track(p.g_h, a.h, v.h), atol=1e-14)
    assert np.allclose(fused.c, ref.fuse_track(p.g_c, a.c, v.c), atol=1e-14)


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
