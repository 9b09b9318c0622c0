import numpy as np
import pytest

from avloc import checkpoint, data, fusion, model, trainer
from avloc.model import DecoderInit
from avloc.ops import Precision


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    cfg = data.SynthConfig(num_events=2, audio_dim=6, visual_dim=5,
                           num_segments=6, train_videos=12, val_videos=4,
                           test_videos=4, noise_sigma=0.15, seed=3)
    out = tmp_path_factory.mktemp("ds")
    return data.generate_synthetic(cfg, out)


def quick_cfg(**kw):
    base = dict(setting="supervised", init_mode="fusion", epochs=6,
                batch_size=4, hidden_size=8, seed=1, patience=None)
    base.update(kw)
    return trainer.TrainConfig(**base)


def test_config_validation():
    for bad in (dict(epochs=0), dict(lr=0.0), dict(lr=-1.0),
                dict(lr=float("nan")), dict(lr=float("inf")),
                dict(setting="semi"), dict(init_mode="magic"),
                dict(batch_size=0), dict(hidden_size=0),
                dict(patience=0), dict(aux_weight=-0.5),
                dict(aux_weight=float("nan")), dict(aux_weight=float("inf")),
                dict(clip_norm=0.0), dict(clip_norm=-1.0),
                dict(clip_norm=float("nan")), dict(clip_norm=float("inf")),
                dict(seed=-1)):
        with pytest.raises(trainer.ConfigError):
            quick_cfg(**bad).validate()
    quick_cfg().validate()
    quick_cfg(patience=None, clip_norm=None).validate()


def test_training_is_bitwise_deterministic(dataset):
    a = trainer.train(dataset, quick_cfg())
    b = trainer.train(dataset, quick_cfg())
    assert [e.loss for e in a.history] == [e.loss for e in b.history]
    assert [e.val_accuracy for e in a.history] == [e.val_accuracy for e in b.history]
    for (name, x), (_, y) in zip(a.params.tensors(), b.params.tensors()):
        assert np.array_equal(x, y), name


def test_seed_changes_the_run(dataset):
    a = trainer.train(dataset, quick_cfg(seed=1, epochs=3))
    b = trainer.train(dataset, quick_cfg(seed=2, epochs=3))
    assert [e.loss for e in a.history] != [e.loss for e in b.history]


def test_loss_decreases_on_easy_data(dataset):
    result = trainer.train(dataset, quick_cfg(epochs=10))
    assert result.history[-1].loss < result.history[0].loss


def test_epoch_log_lines_are_tab_separated(dataset):
    lines = []
    trainer.train(dataset, quick_cfg(epochs=2), log=lines.append)
    assert len(lines) == 2
    for i, line in enumerate(lines, 1):
        epoch, loss, acc = line.split("\t")
        assert int(epoch) == i
        assert float(loss) > 0
        assert 0.0 <= float(acc) <= 1.0


def permuted_label_copy(manifest, out_dir, seed=99):
    """Same dataset, segment labels shuffled within each video."""
    rng = np.random.default_rng(seed)
    out_dir.mkdir()
    clone = data.DatasetManifest(
        num_events=manifest.num_events, categories=manifest.categories,
        audio_dim=manifest.audio_dim, visual_dim=manifest.visual_dim,
        num_segments=manifest.num_segments, entries=list(manifest.entries),
        root=out_dir)
    changed = 0
    for split in data.SPLITS:
        for entry, seq in zip(manifest.split(split),
                              data.load_split(manifest, split)):
            if split == "train":
                permuted = rng.permutation(seq.labels)
                changed += int(not np.array_equal(permuted, seq.labels))
                seq.labels = permuted
            data.write_features(seq, out_dir / entry.path)
    data.write_manifest(clone, out_dir / "manifest.txt")
    assert changed > 0  # the permutation must actually move labels around
    return data.read_manifest(out_dir / "manifest.txt")


def test_weak_training_ignores_segment_label_order(dataset, tmp_path):
    shuffled = permuted_label_copy(dataset, tmp_path / "shuffled")
    cfg = quick_cfg(setting="weak", epochs=4)
    a = trainer.train(dataset, cfg)
    b = trainer.train(shuffled, cfg)
    assert [e.loss for e in a.history] == [e.loss for e in b.history]
    for (name, x), (_, y) in zip(a.params.tensors(), b.params.tensors()):
        assert np.array_equal(x, y), name


def test_supervised_training_does_depend_on_label_order(dataset, tmp_path):
    shuffled = permuted_label_copy(dataset, tmp_path / "shuffled_sup")
    cfg = quick_cfg(setting="supervised", epochs=4)
    a = trainer.train(dataset, cfg)
    b = trainer.train(shuffled, cfg)
    assert [e.loss for e in a.history] != [e.loss for e in b.history]


def test_early_stopping_snapshots_best_epoch(dataset):
    cfg = quick_cfg(epochs=60, patience=3, lr=0.05)  # deliberately unstable
    result = trainer.train(dataset, cfg)
    accs = [e.val_accuracy for e in result.history]
    assert result.best_val_accuracy == max(accs)
    assert accs[result.best_epoch - 1] == result.best_val_accuracy
    if result.stopped_early:
        assert result.epochs_run < cfg.epochs
        assert result.epochs_run == result.best_epoch + cfg.patience
    val = data.load_split(dataset, "val")
    report = trainer.evaluate_params(result.params, val, dataset.class_names())
    assert report.accuracy == result.best_val_accuracy


def test_eval_matches_train_time_accuracy_through_checkpoint(dataset, tmp_path):
    result = trainer.train(dataset, quick_cfg(epochs=4))
    path = tmp_path / "m.ckpt"
    checkpoint.save_model(result.params, path)
    loaded = model.cast_model(checkpoint.load_model(path),
                              Precision.STANDARD.dtype)
    report = trainer.evaluate(loaded, dataset, "val")
    assert report.accuracy == result.best_val_accuracy


def test_evaluate_rejects_dim_mismatch(dataset):
    wrong = model.init_model_params(7, 5, 4, 2, np.random.default_rng(0))
    with pytest.raises(data.ManifestError, match="checkpoint dims"):
        trainer.evaluate(wrong, dataset, "val")
    wrong_c = model.init_model_params(6, 5, 4, 3, np.random.default_rng(0))
    with pytest.raises(data.ManifestError, match="checkpoint has C=3"):
        trainer.evaluate(wrong_c, dataset, "val")


def test_evaluate_checks_dims_before_reading_features(dataset, monkeypatch):
    reads = []
    monkeypatch.setattr(data, "read_features", lambda path: reads.append(path))
    for wrong in (model.init_model_params(7, 5, 4, 2, np.random.default_rng(0)),
                  model.init_model_params(6, 5, 4, 3, np.random.default_rng(0))):
        with pytest.raises(data.ManifestError, match="checkpoint"):
            trainer.evaluate(wrong, dataset, "test")
    assert reads == []


def test_zero_output_layer_predicts_first_class_at_chance():
    c = 3
    params = model.init_model_params(4, 4, 5, c, np.random.default_rng(1))
    params.out_w[:] = 0.0
    params.out_b[:] = 0.0
    rng = np.random.default_rng(2)
    seqs = []
    for i in range(6):
        labels = np.tile(np.arange(c + 1), 2)  # perfectly balanced
        seqs.append(data.FeatureSequence(
            video_id="v%d" % i,
            audio=rng.standard_normal((8, 4)).astype(np.float32),
            visual=rng.standard_normal((8, 4)).astype(np.float32),
            labels=labels, num_events=c))
    names = ["e0", "e1", "e2", "background"]
    report = trainer.evaluate_params(params, seqs, names)
    assert report.accuracy == 1.0 / (c + 1)
    assert report.per_class[0].accuracy == 1.0
    assert all(s.correct == 0 for s in report.per_class[1:])
    assert sum(s.total for s in report.per_class) == report.num_segments


def test_report_lines_format(dataset):
    result = trainer.train(dataset, quick_cfg(epochs=2))
    report = trainer.evaluate(result.params, dataset, "test")
    lines = list(report.lines())
    assert lines[0].startswith("accuracy 0.")
    assert len(lines) == 1 + dataset.num_events + 1


def test_train_requires_nonempty_train_split(dataset, tmp_path):
    empty = data.DatasetManifest(
        num_events=dataset.num_events, categories=dataset.categories,
        audio_dim=dataset.audio_dim, visual_dim=dataset.visual_dim,
        num_segments=dataset.num_segments, entries=[], root=dataset.root)
    with pytest.raises(trainer.ConfigError):
        trainer.train(empty, quick_cfg())


def test_ablation_init_modes_all_train(dataset):
    losses = {}
    for mode in trainer.INIT_MODES:
        result = trainer.train(dataset, quick_cfg(init_mode=mode, epochs=2,
                                                  setting="weak"))
        losses[mode] = result.history[-1].loss
    # the four decoder-init variants genuinely differ
    assert len(set(losses.values())) == 4


def test_label_guided_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    params = model.init_model_params(3, 4, 4, 2, rng, np.float64)
    aux = trainer.init_aux_heads(4, 2, rng, np.float64)
    audio = rng.uniform(-1, 1, size=(4, 3))
    visual = rng.uniform(-1, 1, size=(4, 4))
    y = model.video_label_from_segments(np.array([0, 0, 2, 1]), 2)
    weight = 0.7

    def total_loss():
        trace = model.forward(params, audio, visual, DecoderInit.SUM)
        loss, _ = model.weak_objective(trace, y)
        out_a, _ = fusion.mlp_forward(aux.aux_audio, trace.audio_state.h)
        out_v, _ = fusion.mlp_forward(aux.aux_visual, trace.visual_state.h)
        loss_a, _ = model.bce_on_softmax(out_a, y)
        loss_v, _ = model.bce_on_softmax(out_v, y)
        return loss + weight * (loss_a + loss_v)

    trace = model.forward(params, audio, visual, DecoderInit.SUM)
    loss, dlogits = model.weak_objective(trace, y)
    aux_loss, aux_grads, dh_a, dh_v = trainer.aux_objective(aux, trace, y, weight)
    grads, _ = model.model_backward(trace, dlogits,
                                    extra_dh_audio=dh_a, extra_dh_visual=dh_v)
    assert abs((loss + aux_loss) - total_loss()) < 1e-12

    analytic = dict(grads.tensors())
    analytic.update(dict(aux_grads.tensors()))
    tensors = dict(params.tensors())
    tensors.update(dict(aux.tensors()))
    eps = 1e-6
    for name, arr in tensors.items():
        num = np.zeros_like(arr)
        for j in range(arr.size):
            orig = arr.flat[j]
            arr.flat[j] = orig + eps
            up = total_loss()
            arr.flat[j] = orig - eps
            down = total_loss()
            arr.flat[j] = orig
            num.flat[j] = (up - down) / (2 * eps)
        assert np.allclose(analytic[name], num, atol=1e-7), name


def test_adam_over_packed_arrays_is_bitwise_adam_over_per_gate_views():
    """The trainer steps Adam over the stored gate-packed arrays; without
    clipping that is the same arithmetic, element for element, as stepping
    it over the per-gate views that `tensors()` yields."""
    def build():
        rng = np.random.default_rng(4)
        params = model.init_model_params(5, 7, 4, 3, rng, np.float32)
        return params, trainer.init_aux_heads(4, 3, rng, np.float32)

    packed, packed_aux = build()
    views, views_aux = build()
    opt_packed = dict(packed.arrays(), **dict(packed_aux.arrays()))
    opt_views = dict(views.tensors(), **dict(views_aux.tensors()))
    assert opt_packed["decoder.w"] is packed.decoder.w
    assert len(opt_packed) == 27 and len(opt_views) == 54
    state_packed = trainer.optim.AdamState.for_params(opt_packed)
    state_views = trainer.optim.AdamState.for_params(opt_views)
    before = [arr.copy() for _, arr in packed.tensors()]
    rng = np.random.default_rng(5)
    for _ in range(3):
        seq = data.FeatureSequence(
            "v", rng.standard_normal((6, 5)).astype(np.float32),
            rng.standard_normal((6, 7)).astype(np.float32),
            rng.integers(0, 4, size=6), 3)
        label = seq.video_label().astype(np.float32)
        _, grads, aux_grads = trainer._minibatch_grads(
            packed, [seq], [label], "weak", DecoderInit.SUM, packed_aux, 1.0)
        trainer.optim.adam_step(opt_packed, {name: arr.copy() for name, arr in
                                             (*grads.arrays(), *aux_grads.arrays())},
                                state_packed, 1e-2, None)
        trainer.optim.adam_step(opt_views, {name: arr.copy() for name, arr in
                                            (*grads.tensors(), *aux_grads.tensors())},
                                state_views, 1e-2, None)
        for (name, got), (_, want) in zip(
                (*packed.tensors(), *packed_aux.tensors()),
                (*views.tensors(), *views_aux.tensors())):
            assert got.tobytes() == want.tobytes(), name
    # The packed updates landed in the per-gate views that tensors() (and
    # the checkpoint) reads; the fusion block gets no gradient under SUM.
    moved = {name for (name, arr), old in zip(packed.tensors(), before)
             if not np.array_equal(arr, old)}
    assert moved == {name for name, _ in packed.tensors()
                     if not name.startswith("fusion.")}
