"""Training and evaluation benchmark for avloc.

    python3 perfbench/run.py --workload train_main --seed 1 --seconds 30 --trace 0

The package is imported from the `src` directory next to this one.  A run
generates its workload's synthetic dataset from --seed, then repeats whole
rounds of the calls the CLI makes until --seconds have passed: `avloc
train` (train, save_model) and `avloc eval` (load_model, cast_model to
float32, read_manifest, evaluate).  It then checks the outputs, prints
every metric by name and unit, and prints one JSON result line last.
With --trace 1 it alternates untraced and traced rounds and reports
per-layer times and counts instead of the end-to-end metrics.
"""

import os
import sys
import time

START = time.perf_counter()


def _process_age() -> float:
    """Seconds since this process started, to /proc's 10 ms resolution;
    0 where /proc is absent."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            stat = fh.read()
        with open("/proc/uptime", encoding="ascii") as fh:
            uptime = float(fh.read().split()[0])
    except OSError:
        return 0.0
    started = int(stat.rsplit(")", 1)[1].split()[19]) / os.sysconf("SC_CLK_TCK")
    return max(0.0, uptime - started)


STARTED_AGO = _process_age()

# One BLAS thread, fixed before numpy loads: the load comes from this one
# process, and two threads were measured no faster at these shapes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Every run compiles the package afresh and leaves no bytecode behind.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import types  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

MAIN_SHAPE = dict(num_events=4, audio_dim=16, visual_dim=24, num_segments=10,
                  noise_sigma=0.5, background_overlap=0.2)
AVE_SHAPE = dict(num_events=28, audio_dim=128, visual_dim=512, num_segments=10,
                 noise_sigma=0.5, background_overlap=0.2)


@dataclass(frozen=True)
class Workload:
    synth: dict     # SynthConfig fields; the seed comes from --seed
    train: dict     # TrainConfig fields; seed from --seed, early stopping off
    decoder: str    # decoder initialization the reference forward pass runs
    probe_steps: int     # LSTM steps per speed probe, about 0.5 ms of work
    probe_ref_s: float   # one probe's time on an unloaded reference core


WORKLOADS = {
    # The acceptance shape: tiny matrices, so per-step Python dispatch in
    # lstm and ops sets the time.  Tier-1 spends its time here.
    "train_main": Workload(
        dict(MAIN_SHAPE, train_videos=64, val_videos=16, test_videos=128),
        dict(setting="supervised", init_mode="fusion", epochs=3, batch_size=8,
             hidden_size=32, lr=3e-3),
        "fusion", 6, 5.4e-4),
    # The AVE shape (Tian et al. 2018): large input projections make the
    # BPTT weight gradients dominate; weak BCE, aux heads, SUM init, and no
    # fusion at all.
    "train_ave_weak": Workload(
        dict(AVE_SHAPE, train_videos=48, val_videos=16, test_videos=192),
        dict(setting="weak", init_mode="label_guided", epochs=3, batch_size=16,
             hidden_size=128),
        "sum", 1, 8.8e-4),
    # A short training phase, then the eval path over a large test split:
    # forward-only inference and feature-file reads.
    "eval_main": Workload(
        dict(MAIN_SHAPE, train_videos=48, val_videos=12, test_videos=1024),
        dict(setting="supervised", init_mode="fusion", epochs=3, batch_size=8,
             hidden_size=32, lr=3e-3),
        "fusion", 6, 5.4e-4),
}

ORACLE_SAMPLE = 8  # test videos whose logits are compared one by one


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_avloc(src: Path):
    """Import avloc from the checkout's src directory, or return None."""
    if not (src / "avloc" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import avloc
    from avloc import checkpoint, data, model, trainer
    from avloc.ops import Precision
    if Path(avloc.__file__).resolve().parent != (src / "avloc").resolve():
        return None
    return types.SimpleNamespace(checkpoint=checkpoint, data=data, model=model,
                                 trainer=trainer, Precision=Precision)


def make_probe(workload: Workload) -> SpeedProbe:
    d_a, d_v = workload.synth["audio_dim"], workload.synth["visual_dim"]
    h = workload.train["hidden_size"]
    return SpeedProbe([(d_a, h), (d_v, h), (d_a + d_v, h)],
                      workload.probe_steps, workload.probe_ref_s)


# ---------------------------------------------------------------------------
# rounds


@dataclass
class Outputs:
    """What the checks read from a round."""

    result: object        # TrainResult
    report: object        # EvalReport
    eval_params: object   # the float32 ModelParams that were evaluated
    loaded: dict          # checkpoint tensors as load_model returned them
    ckpt_bytes: int
    peak_rss_mb: float    # through set-up and this, the first, round


@dataclass
class Round:
    train_wall_s: float   # wall seconds of train, probes excluded
    eval_wall_s: float    # wall seconds of the eval path, probes excluded
    train_s: float        # the same on the reference core
    eval_s: float
    outputs: Outputs | None

    @property
    def scale(self) -> float:
        return (self.train_s + self.eval_s) / (self.train_wall_s + self.eval_wall_s)


class Bench:
    def __init__(self, api, workload: Workload, seed: int, work: Path,
                 probe: SpeedProbe):
        self.api = api
        self.wl = workload
        self.seed = seed
        self.work = work
        self.probe = probe
        self.manifest_path = work / "manifest.txt"
        self.ckpt = work / "model.ckpt"
        self.cfg = api.trainer.TrainConfig(seed=seed, patience=None,
                                           **workload.train)
        self.init = api.trainer.INIT_MODES[self.cfg.init_mode][0]
        self.manifest = None

    @property
    def videos_per_round(self) -> int:
        """Videos through model.forward per round: training and validation
        every epoch, then the test split."""
        s = self.wl.synth
        return (self.cfg.epochs * (s["train_videos"] + s["val_videos"])
                + s["test_videos"])

    def setup(self):
        api = self.api
        if self.work.exists():
            shutil.rmtree(self.work)
        api.data.generate_synthetic(
            api.data.SynthConfig(seed=self.seed, **self.wl.synth), self.work)
        self.manifest = api.data.read_manifest(self.manifest_path)

    def round(self, keep: bool) -> Round:
        api, probe = self.api, self.probe
        mark = probe.mark()
        result = api.trainer.train(self.manifest, self.cfg)
        train_wall_s, train_s = probe.since(mark)
        api.checkpoint.save_model(result.params, self.ckpt)
        mark = probe.mark()
        loaded = api.checkpoint.load_model(self.ckpt)
        params = api.model.cast_model(loaded, api.Precision.STANDARD.dtype)
        manifest = api.data.read_manifest(self.manifest_path)
        report = api.trainer.evaluate(params, manifest, "test", init_mode=self.init)
        eval_wall_s, eval_s = probe.since(mark)
        outputs = None
        if keep:
            outputs = Outputs(
                result, report, params, dict(loaded.tensors()),
                self.ckpt.stat().st_size,
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return Round(train_wall_s, eval_wall_s, train_s, eval_s, outputs)

    # -- checks --------------------------------------------------------------

    def gradient_problem(self):
        """(loss_and_grads, loss_only, tensors, rng) for a float64 copy of
        the workload's model, setting and init mode on its first training
        video, aux heads included for label_guided."""
        api, cfg, synth = self.api, self.cfg, self.wl.synth
        path = checks.split_paths(self.manifest_path, "train")[0]
        audio, visual, labels = checks.read_feature_file(path)
        audio = audio.astype(np.float64)
        visual = visual.astype(np.float64)
        c = synth["num_events"]
        rng = np.random.default_rng(self.seed)
        params = api.model.init_model_params(synth["audio_dim"], synth["visual_dim"],
                                             cfg.hidden_size, c, rng, np.float64)
        heads = (api.trainer.init_aux_heads(cfg.hidden_size, c, rng, np.float64)
                 if api.trainer.INIT_MODES[cfg.init_mode][1] else None)
        video_label = api.model.video_label_from_segments(labels, c)
        if cfg.setting == "supervised":
            objective, target = api.model.supervised_objective, labels
        else:
            objective, target = api.model.weak_objective, video_label
        tensors = dict(params.tensors())
        if heads is not None:
            tensors.update(heads.tensors())

        def loss_only():
            trace = api.model.forward(params, audio, visual, self.init)
            loss = objective(trace, target)[0]
            if heads is not None:
                loss += api.trainer.aux_objective(heads, trace, video_label,
                                                  cfg.aux_weight)[0]
            return loss

        def loss_and_grads():
            trace = api.model.forward(params, audio, visual, self.init)
            loss, dlogits = objective(trace, target)
            if heads is None:
                grads, _ = api.model.model_backward(trace, dlogits)
                return loss, dict(grads.tensors())
            aux_loss, aux_grads, dh_a, dh_v = api.trainer.aux_objective(
                heads, trace, video_label, cfg.aux_weight)
            grads, _ = api.model.model_backward(trace, dlogits,
                                                extra_dh_audio=dh_a,
                                                extra_dh_visual=dh_v)
            return loss + aux_loss, dict(grads.tensors(), **dict(aux_grads.tensors()))

        return loss_and_grads, loss_only, tensors, rng

    def eval_inputs(self, outputs: Outputs):
        """Arguments of checks.check_eval for a round's evaluation."""
        api, params = self.api, outputs.eval_params
        audio, visual, labels = checks.read_split(self.manifest_path, "test")
        reference = checks.reference_logits(dict(params.tensors()), audio, visual,
                                            self.wl.decoder)
        rng = np.random.default_rng(self.seed)
        sample = rng.choice(len(labels), size=min(ORACLE_SAMPLE, len(labels)),
                            replace=False)

        def program_forward(i):
            return api.model.forward(params, audio[i], visual[i], self.init)

        sampled = {int(i): program_forward(int(i)).logits for i in sample}
        per_class = [(s.total, s.correct) for s in outputs.report.per_class]
        return (reference, labels, sampled,
                lambda i: api.model.predict_segments(program_forward(i)),
                outputs.report.accuracy, per_class)

    def dims(self):
        s = self.wl.synth
        return (s["audio_dim"], s["visual_dim"], self.cfg.hidden_size,
                s["num_events"])

    def output_failures(self, outputs: Outputs) -> list:
        failures = checks.check_loss([e.loss for e in outputs.result.history])
        failures += checks.check_checkpoint(
            outputs.ckpt_bytes, self.dims(), dict(outputs.result.params.tensors()),
            outputs.loaded)
        failures += checks.check_gradients(
            checks.sample_gradients(*self.gradient_problem()))
        failures += checks.check_eval(*self.eval_inputs(outputs))
        return failures

    def count_failures(self, calls) -> list:
        """Traced call counts against totals derived from the configuration."""
        s, e = self.wl.synth, self.cfg.epochs
        train = s["train_videos"]
        expected = {
            "model.forward": self.videos_per_round,
            "lstm.run_lstm": 3 * calls["model.forward"],
            "lstm.lstm_sequence_backward": 3 * e * train,
            "optim.adam_step": e * math.ceil(train / self.cfg.batch_size),
            "data.read_features": train + s["val_videos"] + s["test_videos"],
        }
        return ["%s: %d calls, expected %d" % (name, calls[name], want)
                for name, want in expected.items() if calls[name] != want]

    # -- metrics -------------------------------------------------------------

    def end_to_end(self, rounds, setup_s: float, wall: bool = False) -> dict:
        """Medians over the rounds; wall=True gives wall-clock times."""
        s = self.wl.synth
        train_videos = self.cfg.epochs * s["train_videos"]
        return {
            "setup_s": (setup_s, "s"),
            "train_videos_per_s": (statistics.median(
                train_videos / (r.train_wall_s if wall else r.train_s)
                for r in rounds), "videos/s"),
            "eval_videos_per_s": (statistics.median(
                s["test_videos"] / (r.eval_wall_s if wall else r.eval_s)
                for r in rounds), "videos/s"),
            # Later rounds repeat the same work; the allocator's high-water
            # mark creeps up over them by whole checkpoint-sized blocks,
            # at round counts that vary from run to run.
            "peak_rss_mb": (rounds[0].outputs.peak_rss_mb, "MB"),
        }

    def per_layer(self, t: Tracer, scale: float) -> dict:
        """Per-layer metrics of one traced round, seconds on the reference
        core by the round's speed factor."""
        train_videos = self.cfg.epochs * self.wl.synth["train_videos"]
        metrics = {
            "lstm.run_lstm.s": (t.total("lstm.run_lstm"), "s"),
            "lstm.run_lstm.calls": (t.calls["lstm.run_lstm"], "count"),
            "lstm.backward.s": (t.total("lstm.lstm_sequence_backward"), "s"),
            "lstm.backward.calls": (t.calls["lstm.lstm_sequence_backward"], "count"),
            "ops.calls_per_train_video": (
                t.ops_within("trainer.train") / train_videos, "count"),
            "fusion.fuse.s": (t.total("fusion.fuse"), "s"),
            "fusion.fuse_backward.s": (t.total("fusion.fuse_backward"), "s"),
            "model.forward.self_s": (t.self_time("model.forward"), "s"),
            "model.forward.calls": (t.calls["model.forward"], "count"),
            "model.objective.s": (t.total("model.supervised_objective",
                                          "model.weak_objective"), "s"),
            "model.backward.self_s": (t.self_time("model.model_backward"), "s"),
            "trainer.aux_objective.s": (t.total("trainer.aux_objective"), "s"),
            "trainer.train.self_s": (t.self_time("trainer.train"), "s"),
            "trainer.evaluate.s": (t.total("trainer.evaluate",
                                           "trainer.evaluate_params"), "s"),
            "optim.adam_step.s": (t.total("optim.adam_step"), "s"),
            "optim.adam_step.calls": (t.calls["optim.adam_step"], "count"),
            "data.load_split.s": (t.total("data.load_split"), "s"),
            "data.read_features.calls": (t.calls["data.read_features"], "count"),
            "checkpoint.save_model.s": (t.total("checkpoint.save_model"), "s"),
            "checkpoint.load_model.s": (t.total("checkpoint.load_model"), "s"),
        }
        return {name: (value * scale if unit == "s" else value, unit)
                for name, (value, unit) in metrics.items()}


def _medians(per_round: list) -> dict:
    """Per-metric medians; counts take the lower middle value, so they stay
    whole numbers."""
    return {name: ((statistics.median if unit == "s" else statistics.median_low)(
                m[name][0] for m in per_round), unit)
            for name, (_, unit) in per_round[0].items()}


def measure(bench: Bench, args, setup_tracer):
    """Rounds until --seconds have passed; returns (metrics, wall-clock
    metrics or None, rounds, attempted, failures)."""
    probe = bench.probe
    setup_wall_s, setup_s = probe.since((START - STARTED_AGO, 0))
    deadline = time.perf_counter() + args.seconds
    rounds, traced = [], []
    while not rounds or time.perf_counter() < deadline:
        rounds.append(bench.round(keep=not rounds))
        if args.trace:
            tracer = Tracer(clock=probe.clock)
            with tracer:
                traced.append((tracer, bench.round(keep=False)))
    attempted = (len(rounds) + len(traced)) * bench.videos_per_round
    wall = None
    if args.trace:
        metrics = _medians([bench.per_layer(t, r.scale) for t, r in traced])
        metrics["data.generate_synthetic.s"] = (
            setup_tracer.total("data.generate_synthetic") * setup_s / setup_wall_s,
            "s")
        metrics["checkpoint.bytes"] = (rounds[0].outputs.ckpt_bytes, "B")
        metrics["trace.overhead_s"] = (
            statistics.median(r.train_s + r.eval_s for _, r in traced)
            - statistics.median(r.train_s + r.eval_s for r in rounds), "s")
    else:
        metrics = bench.end_to_end(rounds, setup_s)
        wall = bench.end_to_end(rounds, setup_wall_s, wall=True)
    failures = []
    for tracer, _ in traced:
        failures += bench.count_failures(tracer.calls)
    if args.trace:
        doc = {"workload": args.workload, "seed": args.seed,
               "sections": [setup_tracer.export("setup"),
                            traced[0][0].export("round")]}
        with open(OUT / ("trace-%s-%d.json" % (args.workload, args.seed)),
                  "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
    return metrics, wall, rounds, attempted, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    work = OUT / ("work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        with make_probe(workload) as probe:
            api = load_avloc(HERE.parent / "src")
            if api is None:
                print("error: no avloc package under %s" % (HERE.parent / "src"),
                      file=sys.stderr)
                return 2
            bench = Bench(api, workload, args.seed, work, probe)
            setup_tracer = Tracer(clock=probe.clock) if args.trace else None
            with setup_tracer or contextlib.nullcontext():
                bench.setup()
            metrics, wall, rounds, attempted, failures = measure(
                bench, args, setup_tracer)
        failures += bench.output_failures(rounds[0].outputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in failures:
        print("check failed: %s" % failure, file=sys.stderr)
    print("rounds %d (%s, seed %d, %g s); speed against the reference core: "
          "median %.3f, from %d probes of median %.4g ms"
          % (len(rounds), args.workload, args.seed, args.seconds,
             statistics.median(r.scale for r in rounds), len(bench.probe.durations),
             1e3 * statistics.median(bench.probe.durations)))
    for name, (value, unit) in metrics.items():
        print("%-28s %14.6g %-9s%s" % (
            name, value, unit,
            " (wall clock %.6g)" % wall[name][0] if wall else ""))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
