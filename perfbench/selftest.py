"""Shows that every output check of the benchmark can fail.

    python3 perfbench/selftest.py

For train_main and train_ave_weak at reduced split sizes, one traced round
runs through the real program.  Each check must pass on the true outputs
and fail on a copy with one thing perturbed: a gradient tensor negated,
one logit changed, the accuracy or a per-class count off by one segment,
the loss rising or not finite, the checkpoint truncated or one weight
changed, a call count off by one.  Exits 1 if a check misses its
perturbation or fails on true outputs.
"""

import dataclasses
import sys

import numpy as np

import checks
import run
from tracer import Tracer

SMALL = dict(train_videos=16, val_videos=4, test_videos=16)
NEGATED = {"train_main": ("decoder.wi",),
           "train_ave_weak": ("enc_visual.wc", "aux_audio.w1")}


def negating(loss_and_grads, name):
    def perturbed():
        loss, grads = loss_and_grads()
        return loss, dict(grads, **{name: -grads[name]})
    return perturbed


def cases(bench, outputs, tracer, workload_name):
    """(label, failures, whether the check should fail) triples."""
    loss_and_grads, loss_only, tensors, _ = bench.gradient_problem()
    yield ("gradients, true", checks.check_gradients(checks.sample_gradients(
        loss_and_grads, loss_only, tensors, np.random.default_rng(0))), False)
    for name in NEGATED[workload_name]:
        yield ("gradients, %s negated" % name,
               checks.check_gradients(checks.sample_gradients(
                   negating(loss_and_grads, name), loss_only, tensors,
                   np.random.default_rng(0))), True)

    reference, labels, sampled, predict, accuracy, per_class = bench.eval_inputs(outputs)
    yield ("eval, true", checks.check_eval(
        reference, labels, sampled, predict, accuracy, per_class), False)
    first = next(iter(sampled))
    bent = dict(sampled)
    bent[first] = sampled[first].copy()
    bent[first][0, 0] += 1e-2
    yield ("eval, one logit +0.01", checks.check_eval(
        reference, labels, bent, predict, accuracy, per_class), True)
    yield ("eval, accuracy off by one segment", checks.check_eval(
        reference, labels, sampled, predict, accuracy + 1.0 / labels.size,
        per_class), True)
    moved = [list(pc) for pc in per_class]
    moved[0][1] -= 1
    yield ("eval, one per-class count off by one", checks.check_eval(
        reference, labels, sampled, predict, accuracy, moved), True)

    losses = [e.loss for e in outputs.result.history]
    yield ("loss, true", checks.check_loss(losses), False)
    yield ("loss, rising", checks.check_loss(losses[::-1]), True)
    yield ("loss, not finite", checks.check_loss(losses[:-1] + [float("nan")]), True)

    trained = dict(outputs.result.params.tensors())
    yield ("checkpoint, true", checks.check_checkpoint(
        outputs.ckpt_bytes, bench.dims(), trained, outputs.loaded), False)
    yield ("checkpoint, truncated by 8 bytes", checks.check_checkpoint(
        outputs.ckpt_bytes - 8, bench.dims(), trained, outputs.loaded), True)
    changed = dict(outputs.loaded)
    changed["out_b"] = changed["out_b"].copy()
    changed["out_b"][0] = np.nextafter(np.float32(changed["out_b"][0]),
                                       np.float32(np.inf))
    yield ("checkpoint, one weight one float32 step off", checks.check_checkpoint(
        outputs.ckpt_bytes, bench.dims(), trained, changed), True)

    yield ("call counts, true", bench.count_failures(tracer.calls), False)
    for name in ("model.forward", "lstm.run_lstm", "optim.adam_step"):
        calls = dict(tracer.calls)
        calls[name] += 1
        yield ("call counts, %s + 1" % name, bench.count_failures(calls), True)


def main() -> int:
    missed = 0
    for name in ("train_main", "train_ave_weak"):
        workload = dataclasses.replace(
            run.WORKLOADS[name], synth=dict(run.WORKLOADS[name].synth, **SMALL))
        probe = run.make_probe(workload)
        api = run.load_avloc(run.HERE.parent / "src")
        if api is None:
            print("error: no avloc package", file=sys.stderr)
            return 2
        work = run.OUT / ("selftest-%s" % name)
        bench = run.Bench(api, workload, 1, work, probe)
        try:
            bench.setup()
            with probe, Tracer(clock=probe.clock) as tracer:
                outputs = bench.round(keep=True).outputs
            for label, failures, should_fail in cases(bench, outputs, tracer, name):
                ok = bool(failures) == should_fail
                missed += not ok
                print("%-4s %-15s %-45s %s" % (
                    "ok" if ok else "MISS", name, label,
                    failures[0] if failures else "passes"))
        finally:
            run.shutil.rmtree(work, ignore_errors=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
