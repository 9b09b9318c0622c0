import math
from types import SimpleNamespace

import numpy as np
import pytest

from avloc import model, ops, trainer
from avloc.model import DecoderInit
from avloc.tree import reduce_rows

import _reference as ref


def make_model(seed=0, d_a=5, d_v=7, h=4, c=3):
    return model.init_model_params(d_a, d_v, h, c, np.random.default_rng(seed))


def make_inputs(params, steps=6, seed=100):
    rng = np.random.default_rng(seed)
    audio = rng.uniform(-1, 1, size=(steps, params.audio_dim))
    visual = rng.uniform(-1, 1, size=(steps, params.visual_dim))
    labels = rng.integers(0, params.num_events + 1, size=steps)
    return audio, visual, labels


def test_forward_shapes_and_probability_rows():
    params = make_model()
    audio, visual, _ = make_inputs(params)
    trace = model.forward(params, audio, visual)
    k = params.num_events + 1
    assert trace.logits.shape == (6, k)
    assert trace.probs.shape == (6, k)
    assert np.allclose(trace.probs.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(trace.probs > 0)
    assert trace.pooled.shape == (k,)
    assert abs(ops.softmax(trace.pooled).sum() - 1.0) < 1e-6


def test_pooled_is_elementwise_mean_bitwise():
    params = make_model(seed=1)
    audio, visual, _ = make_inputs(params, seed=101)
    trace = model.forward(params, audio, visual)
    assert np.array_equal(trace.pooled, trace.logits.mean(axis=0))


def test_pooling_before_softmax_differs_from_after():
    # mean-of-softmax is a different function; make sure we kept the order
    params = make_model(seed=2)
    audio, visual, _ = make_inputs(params, seed=102)
    trace = model.forward(params, audio, visual)
    mean_of_softmax = trace.probs.mean(axis=0)
    assert not np.allclose(ops.softmax(trace.pooled), mean_of_softmax,
                           atol=1e-6)


@pytest.mark.parametrize("mode,name", [
    (DecoderInit.FUSION, "fusion"),
    (DecoderInit.AUDIO_ONLY, "audio_only"),
    (DecoderInit.VISUAL_ONLY, "visual_only"),
    (DecoderInit.SUM, "sum"),
])
def test_logits_match_scalar_reference(mode, name):
    params = make_model(seed=3)
    audio, visual, _ = make_inputs(params, steps=5, seed=103)
    trace = model.forward(params, audio, visual, mode)
    want = ref.forward_logits(params, audio, visual, name)
    assert np.allclose(trace.logits, want, atol=1e-12)


def test_forward_rejects_bad_inputs():
    params = make_model()
    with pytest.raises(ops.ShapeError):
        model.forward(params, np.zeros((3, 5)), np.zeros((4, 7)))
    with pytest.raises(ValueError):
        model.forward(params, np.zeros((0, 5)), np.zeros((0, 7)))


def test_encoder_swap_with_identical_features_keeps_pooled_loss():
    params = make_model(seed=4, d_a=6, d_v=6)
    swapped = params.map(np.copy)
    swapped.enc_audio, swapped.enc_visual = swapped.enc_visual, swapped.enc_audio
    rng = np.random.default_rng(104)
    x = rng.uniform(-1, 1, size=(5, 6))
    y = np.array([0.5, 0.25, 0.0, 0.25])
    a = model.forward(params, x, x)
    b = model.forward(swapped, x, x)
    assert np.array_equal(a.logits, b.logits)
    loss_a, _ = model.weak_objective(a, y)
    loss_b, _ = model.weak_objective(b, y)
    assert loss_a == loss_b


def fake_trace(params, logits):
    """Just enough of a trace for the objective functions."""
    probs = np.stack([ops.softmax(row) for row in logits])
    return SimpleNamespace(params=params, logits=logits, probs=probs,
                           pooled=logits.mean(axis=0), length=logits.shape[0])


def test_supervised_objective_value_and_gradient():
    params = make_model(seed=5)
    rng = np.random.default_rng(105)
    logits = rng.standard_normal((4, 4))
    labels = np.array([0, 3, 1, 2])
    loss, dlogits = model.supervised_objective(fake_trace(params, logits), labels)
    want = -np.mean([math.log(ops.softmax(logits[t])[labels[t]]) for t in range(4)])
    assert abs(loss - want) < 1e-12
    eps = 1e-6
    num = np.zeros_like(logits)
    for j in range(logits.size):
        orig = logits.flat[j]
        logits.flat[j] = orig + eps
        up = model.supervised_objective(fake_trace(params, logits), labels)[0]
        logits.flat[j] = orig - eps
        down = model.supervised_objective(fake_trace(params, logits), labels)[0]
        logits.flat[j] = orig
        num.flat[j] = (up - down) / (2 * eps)
    assert np.allclose(dlogits, num, atol=1e-8)


def test_supervised_objective_uniform_logits_gives_log_k():
    params = make_model(seed=6)
    logits = np.zeros((5, 4))
    loss, _ = model.supervised_objective(fake_trace(params, logits),
                                         np.array([0, 1, 2, 3, 0]))
    assert abs(loss - math.log(4.0)) < 1e-12


def test_bce_on_softmax_known_value():
    # logits [0, 0], target [1, 0]: both classes contribute -log(1/2)
    loss, _ = model.bce_on_softmax(np.zeros(2), np.array([1.0, 0.0]))
    assert abs(loss - math.log(2.0)) < 1e-12


def test_bce_on_softmax_gradient():
    rng = np.random.default_rng(107)
    logits = rng.standard_normal(5)
    target = rng.uniform(0, 1, size=5)
    loss, dlogits = model.bce_on_softmax(logits, target)
    eps = 1e-7
    num = np.zeros_like(logits)
    for j in range(5):
        up = logits.copy()
        down = logits.copy()
        up[j] += eps
        down[j] -= eps
        num[j] = (model.bce_on_softmax(up, target)[0]
                  - model.bce_on_softmax(down, target)[0]) / (2 * eps)
    assert np.allclose(dlogits, num, atol=1e-6)


def test_bce_on_softmax_saturated_probabilities_stay_finite():
    logits = np.array([-800.0, 800.0])
    target = np.array([1.0, 0.0])
    loss, dlogits = model.bce_on_softmax(logits, target)
    assert math.isfinite(loss)
    # both log arguments sit on the clamp floor, so gradients vanish there
    assert np.array_equal(dlogits, np.zeros(2))


def test_bce_on_softmax_validates_target():
    with pytest.raises(ValueError):
        model.bce_on_softmax(np.zeros(3), np.array([0.5, 1.5, 0.0]))
    with pytest.raises(ops.ShapeError):
        model.bce_on_softmax(np.zeros(3), np.zeros(4))


def test_weak_objective_gradient_through_pooling():
    params = make_model(seed=8)
    rng = np.random.default_rng(108)
    logits = rng.standard_normal((4, 4))
    target = np.array([0.25, 0.5, 0.0, 0.25])
    loss, dlogits = model.weak_objective(fake_trace(params, logits), target)
    eps = 1e-6
    num = np.zeros_like(logits)
    for j in range(logits.size):
        orig = logits.flat[j]
        logits.flat[j] = orig + eps
        up = model.weak_objective(fake_trace(params, logits), target)[0]
        logits.flat[j] = orig - eps
        down = model.weak_objective(fake_trace(params, logits), target)[0]
        logits.flat[j] = orig
        num.flat[j] = (up - down) / (2 * eps)
    assert np.allclose(dlogits, num, atol=1e-8)


def test_one_hot_round_trip_and_validation():
    labels = np.array([0, 2, 1, 2])
    rows = model.one_hot(labels, 3)
    assert rows.shape == (4, 3)
    assert np.array_equal(rows.argmax(axis=1), labels)
    assert np.array_equal(rows.sum(axis=1), np.ones(4))


def test_video_label_from_segments():
    y = model.video_label_from_segments(np.array([0, 0, 1, 3]), 3)
    assert np.array_equal(y, np.array([0.5, 0.25, 0.0, 0.25]))
    assert abs(y.sum() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        model.video_label_from_segments(np.array([], dtype=np.int64), 3)
    with pytest.raises(ValueError):
        model.video_label_from_segments(np.array([0, 4]), 3)


def test_segment_label_validation():
    with pytest.raises(ops.ShapeError):
        model.validate_segment_labels(np.zeros(3, dtype=np.int64), 2, 4)
    with pytest.raises(ValueError):
        model.validate_segment_labels(np.array([0, -1]), 2, 2)


def test_predict_ties_choose_lowest_index():
    params = make_model(seed=9)
    params.out_w[:] = 0.0
    params.out_b[:] = 0.0
    audio, visual, _ = make_inputs(params, seed=109)
    trace = model.forward(params, audio, visual)
    assert np.array_equal(model.predict_segments(trace), np.zeros(6, np.int64))


def test_model_backward_rejects_wrong_dlogits_shape():
    params = make_model()
    audio, visual, _ = make_inputs(params)
    trace = model.forward(params, audio, visual)
    with pytest.raises(ops.ShapeError):
        model.model_backward(trace, np.zeros((2, 2)))


def test_clone_is_independent_and_cast_changes_dtype():
    params = make_model(seed=11)
    clone = params.map(np.copy)
    clone.out_w[0, 0] += 1.0
    assert params.out_w[0, 0] != clone.out_w[0, 0]
    f32 = model.cast_model(params, np.float32)
    assert all(arr.dtype == np.float32 for _, arr in f32.tensors())
    back = model.cast_model(f32, np.float64)
    assert all(arr.dtype == np.float64 for _, arr in back.tensors())


def test_tensor_names_are_canonical():
    params = make_model()
    names = [name for name, _ in params.tensors()]
    assert names[0] == "enc_audio.wf"
    assert names[12] == "enc_visual.wf"
    assert names[24] == "fusion.g_h.w1"
    assert names[32] == "decoder.wf"
    assert names[-2:] == ["out_w", "out_b"]
    assert len(names) == 12 * 3 + 8 + 2
    aux = trainer.init_aux_heads(4, 3, np.random.default_rng(0))
    assert [name for name, _ in aux.tensors()] == [
        "aux_audio.w1", "aux_audio.b1", "aux_audio.w2", "aux_audio.b2",
        "aux_visual.w1", "aux_visual.b1", "aux_visual.w2", "aux_visual.b2"]


def _same_tree(grads, params):
    """Names, order, shapes and dtypes of two bundles agree."""
    assert ([(name, arr.shape, arr.dtype) for name, arr in grads.tensors()]
            == [(name, arr.shape, arr.dtype) for name, arr in params.tensors()])


@pytest.mark.parametrize("mode", list(DecoderInit))
def test_gradient_bundles_mirror_the_parameter_trees(mode):
    params = make_model(seed=12)
    audio, visual, labels = make_inputs(params, seed=112)
    trace = model.forward(params, audio, visual, mode)
    _, dlogits = model.supervised_objective(trace, labels)
    grads, _ = model.model_backward(trace, dlogits)
    _same_tree(grads, params)
    fusion_grads = [arr for name, arr in grads.tensors()
                    if name.startswith("fusion.")]
    assert any(arr.any() for arr in fusion_grads) == (mode is DecoderInit.FUSION)

    heads = trainer.init_aux_heads(params.hidden_size, params.num_events,
                                   np.random.default_rng(13))
    y = model.video_label_from_segments(labels, params.num_events)
    _, head_grads, _, _ = trainer.aux_objective(heads, trace, y, 0.5)
    _same_tree(head_grads, heads)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", list(DecoderInit))
def test_a_minibatch_through_buffer_slots_is_bitwise_fresh_buffers(mode, dtype):
    """Three videos run forward and backward one after another, as the
    trainer runs them, each in a slot of one ModelBuffers; their gradient
    rows, reduced after the last, and their logits and states equal those
    of calls that allocate their own buffers."""
    params = model.cast_model(make_model(seed=14), dtype)
    aux = trainer.init_aux_heads(params.hidden_size, params.num_events,
                                 np.random.default_rng(16), dtype)
    videos = [make_inputs(params, seed=114 + k) for k in range(3)]
    first = model.ModelBuffers.for_model(params, 6)
    slots = [first, first.slot(), first.slot()]

    def run(buffers):
        rows, head_rows, outputs = [], [], []
        for (audio, visual, labels), slot in zip(videos, buffers):
            trace = model.forward(params, audio.astype(dtype),
                                  visual.astype(dtype), mode, buffers=slot)
            _, dlogits = model.supervised_objective(trace, labels)
            y = model.video_label_from_segments(labels, params.num_events)
            _, head_grads, dh_a, dh_v = trainer.aux_objective(
                aux, trace, y.astype(dtype), 0.5)
            grads, _ = model.model_backward(trace, dlogits, extra_dh_audio=dh_a,
                                            extra_dh_visual=dh_v)
            rows.append(grads.bundle)
            head_rows.append(head_grads.bundle)
            outputs += [trace.logits, trace.audio_state.h, trace.visual_state.c]
        dense = [arr for bundle in (reduce_rows(rows), reduce_rows(head_rows))
                 for _, arr in bundle.tensors()]
        return outputs + dense

    for got, want in zip(run(slots), run([None] * 3)):
        assert got.dtype == dtype and got.tobytes() == want.tobytes()


def test_forward_refuses_buffers_of_another_length():
    params = make_model()
    audio, visual, _ = make_inputs(params, steps=6)
    with pytest.raises(ops.ShapeError):
        model.forward(params, audio, visual,
                      buffers=model.ModelBuffers.for_model(params, 5))
