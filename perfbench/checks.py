"""Output checks for the benchmark, written apart from avloc.

The file reader, the parameter-count formula and the forward pass below
share no code with the package: they follow the formats and equations in
the README and read avloc's parameters only as a {name: array} dict in
the canonical `tensors()` order.  Every check returns a list of failure
messages; an empty list means the check passed.
"""

import math
import struct
from pathlib import Path

import numpy as np

FEATURE_HEADER = struct.Struct("<4sH4I")      # magic, version, T, d_a, d_v, C
CHECKPOINT_HEADER_BYTES = 4 + 2 + 4 * 4        # magic, version, d_a, d_v, h, C

GRAD_EPS = 1e-5
# Central differences in float64 at eps 1e-5 agree with the analytic
# gradients to about 1e-11 at both benchmark shapes; a sign or scale error
# in any entry larger than ~1e-8 breaks this bound.
GRAD_ATOL = 1e-8
GRAD_RTOL = 1e-5

# The program evaluates in float32, the oracle in float64 on the same
# float32 parameters and inputs.  Logits agree to about 1e-6; classes whose
# oracle logits lie within TIE_TOL of the top one count as ties.
LOGIT_ATOL = 1e-4
LOGIT_RTOL = 1e-4
TIE_TOL = 1e-4


# ---------------------------------------------------------------------------
# parameter count and checkpoint


def lstm_param_count(d: int, h: int) -> int:
    """Four gates, each W (h, d), U (h, h) and b (h,)."""
    return 4 * (h * d + h * h + h)


def model_param_count(d_a: int, d_v: int, h: int, c: int) -> int:
    """Encoders, fusion (two h->h->h MLPs), decoder over [audio; visual],
    and the (C+1)-way output layer."""
    fusion = 2 * (2 * h * h + 2 * h)
    return (lstm_param_count(d_a, h) + lstm_param_count(d_v, h) + fusion
            + lstm_param_count(d_a + d_v, h) + (c + 1) * h + (c + 1))


def check_checkpoint(size: int, dims: tuple, trained: dict,
                     loaded: dict) -> list:
    """The file holds the header plus every parameter as float64, and the
    loaded tensors equal the trained ones bit for bit."""
    failures = []
    expected = CHECKPOINT_HEADER_BYTES + 8 * model_param_count(*dims)
    if size != expected:
        failures.append("checkpoint is %d bytes, expected %d" % (size, expected))
    if list(loaded) != list(trained):
        failures.append("checkpoint tensor names differ from the trained ones")
        return failures
    for name, arr in trained.items():
        got = loaded[name]
        if (got.dtype != np.float64 or got.shape != arr.shape
                or got.astype(arr.dtype).tobytes() != arr.tobytes()):
            failures.append("checkpoint tensor %s differs from the trained one"
                            % name)
    return failures


# ---------------------------------------------------------------------------
# training loss


def check_loss(losses: list) -> list:
    """Mean training loss per epoch: finite, and lower at the end."""
    if not losses or not all(math.isfinite(v) for v in losses):
        return ["training loss is not finite: %r" % (losses,)]
    if not losses[-1] < losses[0]:
        return ["training loss did not fall: first epoch %r, last %r"
                % (losses[0], losses[-1])]
    return []


# ---------------------------------------------------------------------------
# gradients


def check_gradients(samples: list) -> list:
    """samples: (tensor, flat index, analytic, numeric) tuples."""
    return ["gradient %s[%d]: analytic %.6e, central difference %.6e"
            % (name, j, a, n)
            for name, j, a, n in samples
            if not abs(a - n) <= GRAD_ATOL + GRAD_RTOL * abs(n)]


def sample_gradients(loss_and_grads, loss_only, tensors: dict,
                     rng: np.random.Generator) -> list:
    """Central differences on two entries of every tensor: the entry with
    the largest analytic gradient and one drawn at random."""
    _, analytic = loss_and_grads()
    samples = []
    for name, arr in tensors.items():
        flat = analytic[name].reshape(-1)
        picks = sorted({int(np.argmax(np.abs(flat))), int(rng.integers(flat.size))})
        for j in picks:
            orig = arr.flat[j]
            arr.flat[j] = orig + GRAD_EPS
            up = loss_only()
            arr.flat[j] = orig - GRAD_EPS
            down = loss_only()
            arr.flat[j] = orig
            samples.append((name, j, float(flat[j]),
                            (up - down) / (2.0 * GRAD_EPS)))
    return samples


# ---------------------------------------------------------------------------
# feature files and the reference forward pass


def split_paths(manifest_path: Path, split: str) -> list:
    """Feature-file paths of one split, in manifest order."""
    paths = []
    for line in manifest_path.read_text().splitlines():
        parts = line.split("\t")
        if len(parts) == 3 and parts[1] == split:
            paths.append(manifest_path.parent / parts[2])
    return paths


def read_feature_file(path: Path):
    """(audio (T, d_a) f32, visual (T, d_v) f32, labels (T,) int)."""
    raw = path.read_bytes()
    magic, _, t, d_a, d_v, _ = FEATURE_HEADER.unpack_from(raw)
    if magic != b"AVSD":
        raise ValueError("%s: not a feature file" % path)
    offset = FEATURE_HEADER.size
    audio = np.frombuffer(raw, "<f4", t * d_a, offset).reshape(t, d_a)
    offset += 4 * t * d_a
    visual = np.frombuffer(raw, "<f4", t * d_v, offset).reshape(t, d_v)
    offset += 4 * t * d_v
    labels = np.frombuffer(raw, "<u2", t, offset).astype(np.int64)
    return audio, visual, labels


def read_split(manifest_path: Path, split: str):
    """Stacked (N, T, d_a), (N, T, d_v) and (N, T) arrays of one split."""
    videos = [read_feature_file(p) for p in split_paths(manifest_path, split)]
    return tuple(np.stack(parts) for parts in zip(*videos))


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _lstm(p: dict, prefix: str, xs, h=None, c=None):
    """Batched LSTM over xs (N, T, d); returns hidden states (N, T, h) and
    the final (h, c)."""
    n, steps, _ = xs.shape
    size = p[prefix + "uf"].shape[0]
    h = np.zeros((n, size)) if h is None else h
    c = np.zeros((n, size)) if c is None else c

    def pre(gate, x):
        return (x @ p[prefix + "w" + gate].T + h @ p[prefix + "u" + gate].T
                + p[prefix + "b" + gate])

    hs = []
    for t in range(steps):
        x = xs[:, t]
        f = _sigmoid(pre("f", x))
        i = _sigmoid(pre("i", x))
        o = _sigmoid(pre("o", x))
        g = np.tanh(pre("c", x))
        c = f * c + i * g
        h = o * np.tanh(c)
        hs.append(h)
    return np.stack(hs, axis=1), h, c


def _fuse(p: dict, prefix: str, a, v):
    def mlp(x):
        hidden = np.tanh(x @ p[prefix + "w1"].T + p[prefix + "b1"])
        return hidden @ p[prefix + "w2"].T + p[prefix + "b2"]

    m = 0.5 * (mlp(a) + mlp(v))
    return np.tanh(a + m) + np.tanh(v + m)


def reference_logits(params: dict, audio, visual, init: str):
    """Per-segment logits (N, T, C+1) in float64.  init is the decoder
    initialization: fusion, or sum (label_guided)."""
    p = {name: np.asarray(arr, dtype=np.float64) for name, arr in params.items()}
    audio = np.asarray(audio, dtype=np.float64)
    visual = np.asarray(visual, dtype=np.float64)
    _, ah, ac = _lstm(p, "enc_audio.", audio)
    _, vh, vc = _lstm(p, "enc_visual.", visual)
    if init == "fusion":
        h0, c0 = _fuse(p, "fusion.g_h.", ah, vh), _fuse(p, "fusion.g_c.", ac, vc)
    elif init == "sum":
        h0, c0 = ah + vh, ac + vc
    else:
        raise ValueError("unknown decoder init %r" % init)
    hs, _, _ = _lstm(p, "decoder.", np.concatenate([audio, visual], axis=2),
                     h0, c0)
    return hs @ p["out_w"].T + p["out_b"]


# ---------------------------------------------------------------------------
# evaluation


def check_eval(reference, labels, sampled: dict, program_predictions,
               accuracy: float, per_class: list) -> list:
    """Compare the program's evaluation with the reference forward pass.

    reference: (N, T, K) oracle logits; labels: (N, T).
    sampled: {video index: the program's (T, K) logits} for a sample.
    program_predictions(i): the program's per-segment classes of video i,
    consulted only where the oracle's top classes tie within TIE_TOL.
    accuracy, per_class: the program's report, per_class as
    (total, correct) pairs in class-index order.
    """
    failures = []
    top = reference.max(axis=2, keepdims=True)
    candidates = reference >= top - TIE_TOL
    predictions = reference.argmax(axis=2)
    for i, logits in sampled.items():
        want = reference[i]
        if logits.shape != want.shape or not np.allclose(
                logits, want, rtol=LOGIT_RTOL, atol=LOGIT_ATOL):
            failures.append("test video %d: logits differ from the reference "
                            "forward pass by up to %.3e"
                            % (i, float(np.max(np.abs(logits - want)))))
        elif not candidates[i][np.arange(want.shape[0]),
                               logits.argmax(axis=1)].all():
            failures.append("test video %d: predictions differ from the "
                            "reference forward pass" % i)
    for i in np.flatnonzero(candidates.sum(axis=2).max(axis=1) > 1):
        ties = candidates[i].sum(axis=1) > 1
        chosen = np.asarray(program_predictions(int(i)))
        if not candidates[i][np.flatnonzero(ties), chosen[ties]].all():
            failures.append("test video %d: a tied segment took a class "
                            "outside the tie" % i)
        predictions[i][ties] = chosen[ties]
    correct = predictions == labels
    recomputed = float(correct.reshape(-1).mean())
    if recomputed != accuracy:
        failures.append("reported accuracy %r, recomputed %r"
                        % (accuracy, recomputed))
    counts = [(int((labels == k).sum()), int(correct[labels == k].sum()))
              for k in range(reference.shape[2])]
    reported = [tuple(pc) for pc in per_class]
    if reported != counts:
        k = next((k for k, (r, c) in enumerate(zip(reported, counts)) if r != c),
                 min(len(reported), len(counts)))
        failures.append("class %d: reported (total, correct) %r, recomputed %r"
                        % (k, reported[k] if k < len(reported) else None,
                           counts[k] if k < len(counts) else None))
    return failures
