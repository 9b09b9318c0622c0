"""Finite-difference verification of the hand-derived gradients.

Central differences with a configurable epsilon, run in 64-bit precision
on a deliberately tiny model so every parameter entry can be perturbed.
Every training path is checked: each decoder-init row of
`trainer.INIT_MODES` under both losses, the label-guided auxiliary heads
included, with the analytic gradients from the trainer's own minibatch
step over TINY_VIDEOS videos with different labels: the gradient reduced
over the batch's stacked rows against central differences of the mean
loss.
The error measure is |analytic - numeric| / max(1, |numeric|); the guard
in the denominator keeps zero-gradient entries well defined.
"""

from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from . import trainer
from .data import FeatureSequence

TINY_DIMS = dict(audio_dim=5, visual_dim=7, hidden_size=4, num_events=3)
TINY_STEPS = 4
TINY_VIDEOS = 2


def finite_difference_grads(loss_fn, tensors: dict, eps: float = 1e-5) -> dict:
    """Numeric gradients of loss_fn() w.r.t. every entry of every tensor.

    loss_fn takes no arguments and must read the live arrays in `tensors`;
    entries are perturbed in place and restored.
    """
    out = {}
    for name, arr in tensors.items():
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = loss_fn()
            flat[j] = orig - eps
            down = loss_fn()
            flat[j] = orig
            gflat[j] = (up - down) / (2.0 * eps)
        out[name] = grad
    return out


def max_relative_error(analytic: dict, numeric: dict):
    """Worst guarded relative error over all tensors; returns (err, name)."""
    worst = 0.0
    worst_name = ""
    for name, a in analytic.items():
        n = numeric[name]
        err = np.abs(a - n) / np.maximum(1.0, np.abs(n))
        peak = float(err.max()) if err.size else 0.0
        if peak >= worst:
            worst = peak
            worst_name = name
    return worst, worst_name


@dataclass
class GradcheckResult:
    passed: bool
    tolerance: float
    max_rel_error: float
    worst_tensor: str
    per_path: dict  # "init_mode/setting" -> (max rel err, worst tensor)

    def summary(self) -> str:
        lines = ["gradcheck: %s (tolerance %g)"
                 % ("PASS" if self.passed else "FAIL", self.tolerance)]
        for path, (err, tensor) in self.per_path.items():
            lines.append("  %-24s max rel err %.3e (worst tensor %s)"
                         % (path, err, tensor))
        return "\n".join(lines)


def run_gradcheck(seed: int = 0, eps: float = 1e-5,
                  tolerance: float = 1e-4) -> GradcheckResult:
    """Check every init mode under both losses on a tiny model and a
    minibatch of tiny videos, every parameter entry."""
    if seed < 0:
        raise trainer.ConfigError("seed must be >= 0, got %d" % seed)
    rng = np.random.default_rng(seed)
    params = model_mod.init_model_params(rng=rng, dtype=np.float64, **TINY_DIMS)
    heads = trainer.init_aux_heads(params.hidden_size, params.num_events, rng,
                                   np.float64)
    c = params.num_events
    seqs = []
    for k in range(TINY_VIDEOS):
        labels = rng.integers(0, c + 1, size=TINY_STEPS)
        # Class k holds most segments of video k, so the videos' labels
        # differ at both levels.
        labels[:TINY_STEPS // 2 + 1] = k
        seqs.append(FeatureSequence(
            "gradcheck%d" % k,
            rng.uniform(-1.0, 1.0, size=(TINY_STEPS, params.audio_dim)),
            rng.uniform(-1.0, 1.0, size=(TINY_STEPS, params.visual_dim)),
            labels, c))
    video_labels = [model_mod.video_label_from_segments(seq.labels, c)
                    for seq in seqs]
    weight = trainer.TrainConfig().aux_weight
    # Each finite difference runs forward only, one video after another.
    buffers = model_mod.ModelBuffers.for_model(params, TINY_STEPS)

    def run(init_mode, setting):
        dec_init, use_aux = trainer.INIT_MODES[init_mode]
        aux = heads if use_aux else None
        if setting == "supervised":
            objective, targets = (model_mod.supervised_objective,
                                  [seq.labels for seq in seqs])
        else:
            objective, targets = model_mod.weak_objective, video_labels
        tensors = dict(params.tensors())
        if aux is not None:
            tensors.update(aux.tensors())

        def value():
            total = 0.0
            for seq, target, video_label in zip(seqs, targets, video_labels):
                trace = model_mod.forward(params, seq.audio, seq.visual, dec_init,
                                          buffers=buffers)
                total += objective(trace, target)[0]
                if aux is not None:
                    total += trainer.aux_objective(aux, trace, video_label,
                                                   weight)[0]
            return total / len(seqs)

        _, grads, aux_grads = trainer._minibatch_grads(
            params, seqs, video_labels, setting, dec_init, aux, weight)
        analytic = dict(grads.tensors())
        if aux_grads is not None:
            analytic.update(aux_grads.tensors())
        numeric = finite_difference_grads(value, tensors, eps)
        return max_relative_error(analytic, numeric)

    per_path = {"%s/%s" % (init_mode, setting): run(init_mode, setting)
                for init_mode in trainer.INIT_MODES for setting in trainer.SETTINGS}
    max_err, worst = max(per_path.values(), key=lambda pair: pair[0])
    return GradcheckResult(passed=max_err < tolerance, tolerance=tolerance,
                           max_rel_error=max_err, worst_tensor=worst,
                           per_path=per_path)
