"""Acceptance gate: six end-to-end criteria with pinned seeds, tolerances
and runtime bounds.  Each test records one PASS/FAIL line (echoed in the
terminal summary).

The synthetic-experiment thresholds were calibrated once against a
maximum-likelihood oracle that knows the generative model (its test
accuracy on the pinned dataset is ~0.95) and then frozen together with
the dataset seed and training hyperparameters below.
"""

import time

import numpy as np
import pytest

from avloc import checkpoint, data, fusion, gradcheck, lstm, model, ops, trainer

import _reference as ref
from conftest import record

pytestmark = pytest.mark.acceptance

# pinned hyperparameters for the synthetic experiments (criteria 3-5)
OVERFIT_DATA = dict(num_events=4, audio_dim=16, visual_dim=24, num_segments=10,
                    train_videos=4, val_videos=0, test_videos=0,
                    noise_sigma=0.1, seed=0)
OVERFIT_TRAIN = dict(setting="supervised", epochs=500, batch_size=4,
                     hidden_size=24, lr=3e-3, seed=0, patience=None)
MAIN_DATA = dict(num_events=4, audio_dim=16, visual_dim=24, num_segments=10,
                 train_videos=200, val_videos=50, test_videos=50,
                 noise_sigma=0.5, background_overlap=0.2, seed=1)
MAIN_TRAIN = dict(epochs=200, batch_size=8, hidden_size=32, lr=3e-3,
                  seed=0, patience=30)
ABLATION_TRAIN = dict(setting="weak", epochs=60, batch_size=8, hidden_size=32,
                      lr=3e-3, patience=15)
ABLATION_SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def main_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_main")
    return data.generate_synthetic(data.SynthConfig(**MAIN_DATA), out)


def test_criterion_1_gradient_correctness():
    started = time.time()
    result = gradcheck.run_gradcheck(seed=0, eps=1e-5, tolerance=1e-4)
    elapsed = time.time() - started
    ok = result.passed and elapsed < 60.0
    detail = ("gradcheck max rel error %.3e (tolerance 1e-4, worst %s), %.1fs"
              % (result.max_rel_error, result.worst_tensor, elapsed))
    assert record(1, ok, detail), detail


def test_criterion_2_reference_oracle_equivalence():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        params = model.init_model_params(5, 7, 4, 3, rng, np.float64)
        audio = rng.uniform(-1.0, 1.0, size=(4, 5))
        visual = rng.uniform(-1.0, 1.0, size=(4, 7))
        trace = model.forward(params, audio, visual)
        want = np.array(ref.forward_logits(params, audio, visual))
        worst = max(worst, float(np.abs(trace.logits - want).max()))
    ok = worst < 1e-12
    detail = ("forward logits vs scalar-loop reference: max abs diff %.3e "
              "over 100 draws (tolerance 1e-12)" % worst)
    assert record(2, ok, detail), detail


def test_criterion_3_overfit_four_videos(tmp_path):
    started = time.time()
    manifest = data.generate_synthetic(data.SynthConfig(**OVERFIT_DATA),
                                       tmp_path)
    result = trainer.train(manifest, trainer.TrainConfig(**OVERFIT_TRAIN))
    train_seqs = data.load_split(manifest, "train")
    acc = trainer.evaluate_params(result.params, train_seqs,
                                  manifest.class_names()).accuracy
    elapsed = time.time() - started
    ok = acc == 1.0 and result.epochs_run <= 500 and elapsed < 120.0
    detail = ("overfit 4 videos: train accuracy %.4f after %d epochs, %.1fs"
              % (acc, result.epochs_run, elapsed))
    assert record(3, ok, detail), detail


def test_criterion_4_synthetic_end_to_end(main_dataset):
    started = time.time()
    accs = {}
    for setting, threshold in (("supervised", 0.90), ("weak", 0.80)):
        cfg = trainer.TrainConfig(setting=setting, **MAIN_TRAIN)
        result = trainer.train(main_dataset, cfg)
        report = trainer.evaluate(result.params, main_dataset, "test")
        accs[setting] = (report.accuracy, threshold, result.epochs_run)
    elapsed = time.time() - started
    ok = (all(acc >= thr for acc, thr, _ in accs.values())
          and all(epochs <= 200 for _, _, epochs in accs.values())
          and elapsed < 600.0)
    detail = ("test accuracy supervised %.3f (>= 0.90), weak %.3f (>= 0.80), "
              "%.0fs" % (accs["supervised"][0], accs["weak"][0], elapsed))
    assert record(4, ok, detail), detail


def test_criterion_5_ablation_ordering(main_dataset):
    means = {}
    for mode in ("fusion", "label_guided", "visual_only", "audio_only"):
        accs = []
        for seed in ABLATION_SEEDS:
            cfg = trainer.TrainConfig(init_mode=mode, seed=seed,
                                      **ABLATION_TRAIN)
            result = trainer.train(main_dataset, cfg)
            report = trainer.evaluate(result.params, main_dataset, "test",
                                      init_mode=trainer.INIT_MODES[mode][0])
            accs.append(report.accuracy)
        means[mode] = float(np.mean(accs))
    ok = (means["fusion"] >= means["label_guided"]
          and means["fusion"] >= max(means["visual_only"], means["audio_only"]))
    detail = ("weak 3-seed means: fusion %.4f, label_guided %.4f, "
              "visual_only %.4f, audio_only %.4f"
              % (means["fusion"], means["label_guided"],
                 means["visual_only"], means["audio_only"]))
    assert record(5, ok, detail), detail


def _state_bounds_hold():
    rng = np.random.default_rng(0)
    params = lstm.init_lstm_params(6, 8, rng)
    _, trace = lstm.run_lstm(params, rng.standard_normal((30, 6)) * 4.0)
    sig = trace.gates[:, :3 * params.hidden_size]  # the f, i and o gates
    return (np.all(trace.h > -1.0) and np.all(trace.h < 1.0)
            and np.all(sig > 0.0) and np.all(sig < 1.0))


def _softmax_invariants_hold():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(9) * rng.uniform(1, 100)
        if abs(ops.softmax(x).sum() - 1.0) >= 1e-6:
            return False
        if not np.allclose(ops.softmax(x), ops.softmax(x + 37.0), atol=1e-12):
            return False
    grid = np.array([0.5, -1.25, 2.0, 0.0])  # exact under a +4.0 shift
    return np.array_equal(ops.softmax(grid), ops.softmax(grid + 4.0))


def _fusion_symmetry_holds():
    rng = np.random.default_rng(2)
    params = fusion.init_fusion_params(8, rng)
    a = lstm.LstmState(rng.standard_normal(8), rng.standard_normal(8))
    v = lstm.LstmState(rng.standard_normal(8), rng.standard_normal(8))
    ab, _ = fusion.fuse(params, a, v)
    ba, _ = fusion.fuse(params, v, a)
    return np.array_equal(ab.h, ba.h) and np.array_equal(ab.c, ba.c)


def _pooling_is_mean():
    rng = np.random.default_rng(3)
    params = model.init_model_params(5, 7, 4, 3, rng)
    trace = model.forward(params, rng.uniform(-1, 1, (6, 5)),
                          rng.uniform(-1, 1, (6, 7)))
    return np.array_equal(trace.pooled, trace.logits.mean(axis=0))


def _video_labels_consistent(manifest):
    for split in data.SPLITS:
        for seq in data.load_split(manifest, split):
            y = seq.video_label()
            counts = np.bincount(seq.labels, minlength=manifest.num_events + 1)
            if not np.allclose(y, counts / seq.length, atol=1e-12):
                return False
            if abs(y.sum() - 1.0) >= 1e-12:
                return False
    return True


def _round_trips_bitwise(tmp_path):
    rng = np.random.default_rng(4)
    seq = data.FeatureSequence(
        video_id="clip",
        audio=rng.standard_normal((5, 3)).astype(np.float32),
        visual=rng.standard_normal((5, 4)).astype(np.float32),
        labels=rng.integers(0, 3, 5).astype(np.int64), num_events=2)
    f1, f2 = tmp_path / "a.avsd", tmp_path / "b.avsd"
    data.write_features(seq, f1)
    data.write_features(data.read_features(f1), f2)
    if f1.read_bytes() != f2.read_bytes():
        return False
    params = model.init_model_params(3, 4, 5, 2, rng)
    c1, c2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    checkpoint.save_model(params, c1)
    checkpoint.save_model(checkpoint.load_model(c1), c2)
    return c1.read_bytes() == c2.read_bytes()


def _training_deterministic(tmp_path):
    cfg = data.SynthConfig(num_events=2, audio_dim=5, visual_dim=4,
                           num_segments=4, train_videos=6, val_videos=2,
                           test_videos=2, noise_sigma=0.2, seed=9)
    manifest = data.generate_synthetic(cfg, tmp_path / "det")
    tc = trainer.TrainConfig(epochs=4, batch_size=3, hidden_size=6, seed=7,
                             patience=None)
    one = trainer.train(manifest, tc)
    two = trainer.train(manifest, tc)
    if [e.loss for e in one.history] != [e.loss for e in two.history]:
        return False
    return all(np.array_equal(x, y) for (_, x), (_, y)
               in zip(one.params.tensors(), two.params.tensors()))


def test_criterion_6_invariant_suite(main_dataset, tmp_path):
    checks = {
        "state bounds": _state_bounds_hold(),
        "softmax": _softmax_invariants_hold(),
        "fusion symmetry": _fusion_symmetry_holds(),
        "pooling=mean": _pooling_is_mean(),
        "video labels": _video_labels_consistent(main_dataset),
        "round trips": _round_trips_bitwise(tmp_path),
        "determinism": _training_deterministic(tmp_path),
    }
    failed = [name for name, good in checks.items() if not good]
    ok = not failed
    detail = ("all %d invariant groups hold" % len(checks) if ok
              else "failed: %s" % ", ".join(failed))
    assert record(6, ok, detail), detail
