"""The minibatch path against the per-video one, in float64: one input
projection over stacked videos, and one product per stored array over the
gradient rows of a whole batch; evaluation over a stream of videos, one
chunk at a time.  Also pins how often each traced function runs in a
training and evaluation round."""

import math
import struct
import weakref

import numpy as np
import pytest

from avloc import data, fusion, lstm, model, ops, optim, trainer
from avloc.model import DecoderInit

C, D_A, D_V, H, T = 3, 5, 7, 4, 6


def _relative_error(got, want):
    """Largest absolute difference over the largest reference magnitude;
    0 when both are all zero."""
    scale = np.abs(want).max()
    diff = np.abs(got - want).max()
    return float(diff / scale) if scale else float(diff)


def make_videos(count, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return [data.FeatureSequence(
        "v%d" % k, rng.uniform(-1, 1, size=(T, D_A)).astype(dtype),
        rng.uniform(-1, 1, size=(T, D_V)).astype(dtype),
        rng.integers(0, C + 1, size=T), C) for k in range(count)]


@pytest.mark.parametrize("videos", [3, 1])
@pytest.mark.parametrize("setting", trainer.SETTINGS)
@pytest.mark.parametrize("init_mode", list(trainer.INIT_MODES))
def test_minibatch_gradient_is_the_mean_of_per_video_gradients(
        init_mode, setting, videos):
    """B=3, and B=1 as a short last batch is."""
    rng = np.random.default_rng(1)
    params = model.init_model_params(D_A, D_V, H, C, rng, np.float64)
    dec_init, use_aux = trainer.INIT_MODES[init_mode]
    aux = trainer.init_aux_heads(H, C, rng, np.float64) if use_aux else None
    seqs = make_videos(videos, seed=2)
    video_labels = [seq.video_label() for seq in seqs]
    if setting == "supervised":
        objective, targets = model.supervised_objective, [s.labels for s in seqs]
    else:
        objective, targets = model.weak_objective, video_labels
    weight = 0.7

    loss, grads, aux_grads = trainer._minibatch_grads(
        params, seqs, video_labels, setting, dec_init, aux, weight)

    want_loss = 0.0
    want = {}
    for seq, target, y in zip(seqs, targets, video_labels):
        trace = model.forward(params, seq.audio, seq.visual, dec_init)
        video_loss, dlogits = objective(trace, target)
        extra = {}
        if aux is not None:
            aux_loss, head_grads, dh_a, dh_v = trainer.aux_objective(
                aux, trace, y, weight)
            video_loss += aux_loss
            extra = dict(extra_dh_audio=dh_a, extra_dh_visual=dh_v)
            for name, arr in head_grads.tensors():
                want[name] = want.get(name, 0.0) + arr / len(seqs)
        want_loss += video_loss
        for name, arr in model.model_backward(trace, dlogits, **extra)[0].tensors():
            want[name] = want.get(name, 0.0) + arr / len(seqs)

    got = dict(grads.tensors())
    if aux is not None:
        got.update(aux_grads.tensors())
    else:
        assert aux_grads is None
    assert got.keys() == want.keys()
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    for name in want:
        assert got[name].dtype == np.float64, name
        assert _relative_error(got[name], want[name]) <= 1e-12, name


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("mode", list(DecoderInit))
def test_forward_on_batch_projection_rows_is_standalone_forward(mode, dtype):
    params = model.init_model_params(D_A, D_V, H, C, np.random.default_rng(3),
                                     dtype)
    seqs = make_videos(3, seed=4, dtype=dtype)
    projections = model.project_inputs(params, [s.audio for s in seqs],
                                       [s.visual for s in seqs])
    before = [[z.copy() for z in proj] for proj in projections]
    rtol = 1e-12 if dtype == np.float64 else 1e-5
    for seq, proj, kept in zip(seqs, projections, before):
        alone = model.forward(params, seq.audio, seq.visual, mode)
        batched = model.forward(params, seq.audio, seq.visual, mode, proj)
        for got, want in ((batched.logits, alone.logits),
                          (batched.dec_trace.h, alone.dec_trace.h),
                          (batched.audio_state.c, alone.audio_state.c),
                          (batched.visual_state.h, alone.visual_state.h)):
            assert got.dtype == dtype
            assert _relative_error(got, want) <= rtol
        # The projection rows are only read.
        for z, z0 in zip(proj, kept):
            assert np.array_equal(z, z0)


def test_project_inputs_rejects_mismatched_rows():
    params = model.init_model_params(D_A, D_V, H, C, np.random.default_rng(0))
    with pytest.raises(ops.ShapeError):
        model.project_inputs(params, [np.zeros((4, D_A))], [np.zeros((3, D_V))])
    with pytest.raises(ops.ShapeError):
        lstm.run_lstm(params.enc_audio, np.zeros((4, D_A)),
                      zx=np.zeros((3, 4 * H)))


def test_evaluate_params_in_chunks_matches_a_per_video_loop():
    count = 37
    assert count % trainer.EVAL_CHUNK
    params = model.init_model_params(D_A, D_V, H, C, np.random.default_rng(5),
                                     np.float32)
    seqs = make_videos(count, seed=6, dtype=np.float32)
    names = ["e0", "e1", "e2", "background"]
    for mode in DecoderInit:
        report = trainer.evaluate_params(params, seqs, names, mode)
        preds = np.concatenate([model.predict_segments(
            model.forward(params, s.audio, s.visual, mode)) for s in seqs])
        labels = np.concatenate([s.labels for s in seqs])
        assert report.accuracy == (preds == labels).mean()  # segment accuracy
        assert report.num_segments == count * T
        for idx, stat in enumerate(report.per_class):
            assert stat.name == names[idx]
            assert stat.total == (labels == idx).sum()
            assert stat.correct == ((preds == idx) & (labels == idx)).sum()
        assert report.confusion.tolist() == [
            [int(((labels == i) & (preds == j)).sum()) for j in range(C + 1)]
            for i in range(C + 1)]


def mixed_videos(count, seed):
    """float32 videos whose lengths cycle through T, 4, 1, 9."""
    rng = np.random.default_rng(seed)
    lengths = [(T, 4, 1, 9)[k % 4] for k in range(count)]
    return [data.FeatureSequence(
        "v%d" % k, rng.uniform(-1, 1, size=(steps, D_A)).astype(np.float32),
        rng.uniform(-1, 1, size=(steps, D_V)).astype(np.float32),
        rng.integers(0, C + 1, size=steps), C)
        for k, steps in enumerate(lengths)]


def _report_bits(report):
    return (struct.pack("<d", report.accuracy), report.num_segments,
            [(s.name, s.total, s.correct) for s in report.per_class],
            report.confusion.dtype, report.confusion.shape,
            report.confusion.tobytes())


@pytest.mark.parametrize("count", [1, 15, 16, 17, 37])
def test_evaluate_params_over_a_generator_is_bitwise_the_list_report(count):
    """Split sizes around one and two chunks, every init mode, mixed T."""
    params = model.init_model_params(D_A, D_V, H, C, np.random.default_rng(7),
                                     np.float32)
    seqs = mixed_videos(count, seed=count)
    names = ["e0", "e1", "e2", "background"]
    for mode, _ in trainer.INIT_MODES.values():
        want = trainer.evaluate_params(params, seqs, names, mode)
        stream = (seq for seq in seqs)
        got = trainer.evaluate_params(params, stream, names, mode)
        assert next(stream, None) is None
        assert _report_bits(got) == _report_bits(want)
        assert want.num_segments == sum(s.length for s in seqs)
        assert want.confusion.sum() == want.num_segments


def test_a_streamed_split_is_held_at_most_two_chunks_at_a_time():
    """Weak references to the videos of a five-chunk stream: at every
    yield, at most the chunk being scored and the one being read are
    alive, and none once the report is made."""
    count = 5 * trainer.EVAL_CHUNK
    params = model.init_model_params(D_A, D_V, H, C, np.random.default_rng(8),
                                     np.float32)
    rng = np.random.default_rng(9)
    refs, alive = [], []

    def stream():
        for k in range(count):
            seq = data.FeatureSequence(
                "v%d" % k, rng.uniform(-1, 1, size=(T, D_A)).astype(np.float32),
                rng.uniform(-1, 1, size=(T, D_V)).astype(np.float32),
                rng.integers(0, C + 1, size=T), C)
            refs.append(weakref.ref(seq))
            alive.append(sum(ref() is not None for ref in refs))
            yield seq

    report = trainer.evaluate_params(params, stream(), ["a", "b", "c", "d"])
    assert report.num_segments == count * T
    assert len(alive) == count
    assert trainer.EVAL_CHUNK <= max(alive) <= 2 * trainer.EVAL_CHUNK
    assert all(ref() is None for ref in refs)


# ---------------------------------------------------------------------------
# call counts


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    cfg = data.SynthConfig(num_events=2, audio_dim=4, visual_dim=3,
                           num_segments=5, train_videos=6, val_videos=3,
                           test_videos=5, seed=8)
    return data.generate_synthetic(cfg, tmp_path_factory.mktemp("counts"))


@pytest.mark.parametrize("init_mode,setting", [("fusion", "supervised"),
                                               ("label_guided", "weak")])
def test_call_counts_of_a_training_and_evaluation_round(
        dataset, monkeypatch, init_mode, setting):
    """The totals a traced benchmark round checks, and one input
    projection per LSTM per minibatch and per evaluation chunk."""
    counted = [(model, "forward"), (model, "model_backward"),
               (lstm, "run_lstm"), (lstm, "lstm_sequence_backward"),
               (lstm, "project"), (optim, "adam_step"),
               (trainer, "aux_objective"), (fusion, "fuse"),
               (fusion, "fuse_backward"), (data, "read_features")]
    calls = dict.fromkeys((name for _, name in counted), 0)

    def counter(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in counted:
        monkeypatch.setattr(module, name, counter(name, getattr(module, name)))
    epochs, batch = 2, 4
    cfg = trainer.TrainConfig(setting=setting, init_mode=init_mode,
                              epochs=epochs, batch_size=batch, hidden_size=4,
                              seed=1, patience=None)
    result = trainer.train(dataset, cfg)
    trainer.evaluate(result.params, dataset, "test",
                     trainer.INIT_MODES[init_mode][0])

    train, val, test = 6, 3, 5
    forwards = epochs * (train + val) + test
    backwards = epochs * train
    chunks = (epochs * (math.ceil(train / batch)
                        + math.ceil(val / trainer.EVAL_CHUNK))
              + math.ceil(test / trainer.EVAL_CHUNK))
    fused = init_mode == "fusion"
    assert calls == {
        "forward": forwards, "model_backward": backwards,
        "run_lstm": 3 * forwards, "lstm_sequence_backward": 3 * backwards,
        "project": 3 * chunks, "adam_step": epochs * math.ceil(train / batch),
        "aux_objective": 0 if fused else backwards,
        "fuse": forwards if fused else 0,
        "fuse_backward": backwards if fused else 0,
        "read_features": train + val + test,
    }
