"""Training loops for both supervision settings, ablations, evaluation.

Per minibatch, the trainer stacks the videos' segments and computes each
LSTM's input projection once for all of them.  Each video then runs its
own recurrence: forward, objective and a backward pass that returns its
gradient in factored form, as rows (`tree.Rows`).  The recurrences write
into LSTM buffers that a run allocates once (`model.ModelBuffers`), and
evaluation into buffers allocated once per split.  One reduction over
the rows of the whole batch gives the mean gradient, one matrix product
or column sum per stored array, and Adam with global-norm clipping
applies it.  Every trainable array lives in one flat buffer and the
reduction writes into a second one laid out the same way, so that Adam
steps over all of them at once (`optim`).  The best-on-val parameters
are one flat copy of the model's part of that buffer.  Runs are
deterministic for a fixed seed: shuffling comes from one seeded
generator and the rows are stacked in shuffled video order.

Evaluation streams a split: it reads, projects and scores EVAL_CHUNK
videos at a time and adds each chunk's segments to one (C+1) x (C+1)
confusion count, from which the accuracies are read.  A chunk makes one
input projection per LSTM, one forward pass per video and one prediction
over the stacked logits of all its videos; no forward pass computes a
softmax of its own (`model.PredictionTrace.probs` is computed when read).  Training holds
its train and val splits whole; `evaluate` holds one chunk of the split.

Decoder-initialization modes mirror the ablation table: the full fusion
path, a single modality's final state, or "label_guided", which sums both
final states and adds an auxiliary video-level classification loss on each
encoder's final hidden state through a small MLP head.  The two heads are
one packed MLP pair (`fusion.MlpPair`), run through the forward and
backward functions of the fusion block, both heads per product.  They
belong to the trainer, not the model, and are not part of checkpoints.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import data as data_mod
from . import fusion as fusion_mod
from . import model as model_mod
from . import optim
from .data import ConfigError, DatasetManifest
from .model import DecoderInit, ModelBuffers, ModelParams
from .ops import Precision
from .tree import RowGrads, flat_views, pack, reduce_rows

SETTINGS = ("supervised", "weak")

# Videos per input projection in evaluation, and the most videos it holds
# at once: enough rows for the product to run at full speed, few enough
# that a split's features and projections are never held whole.
EVAL_CHUNK = 16

# Table-3 row name -> (decoder init, auxiliary heads enabled)
INIT_MODES = {
    "fusion": (DecoderInit.FUSION, False),
    "visual_only": (DecoderInit.VISUAL_ONLY, False),
    "audio_only": (DecoderInit.AUDIO_ONLY, False),
    "label_guided": (DecoderInit.SUM, True),
}


@dataclass
class TrainConfig:
    setting: str = "supervised"
    init_mode: str = "fusion"
    epochs: int = 200
    batch_size: int = 16
    lr: float = 1e-3
    clip_norm: float | None = 5.0
    seed: int = 0
    hidden_size: int = 32
    precision: Precision = Precision.STANDARD
    patience: int | None = 20  # epochs without val improvement; None disables
    aux_weight: float = 1.0    # label_guided auxiliary loss weight

    def validate(self):
        if self.setting not in SETTINGS:
            raise ConfigError("setting must be one of %s, got %r"
                              % ("/".join(SETTINGS), self.setting))
        if self.init_mode not in INIT_MODES:
            raise ConfigError("init_mode must be one of %s, got %r"
                              % ("/".join(INIT_MODES), self.init_mode))
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1, got %d" % self.epochs)
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ConfigError("learning rate must be finite and > 0, got %g"
                              % self.lr)
        if self.clip_norm is not None and not (math.isfinite(self.clip_norm)
                                               and self.clip_norm > 0.0):
            raise ConfigError("clip_norm must be finite and > 0 or None, got %g"
                              % self.clip_norm)
        if self.seed < 0:
            raise ConfigError("seed must be >= 0, got %d" % self.seed)
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1, got %d" % self.batch_size)
        if self.hidden_size < 1:
            raise ConfigError("hidden_size must be >= 1, got %d" % self.hidden_size)
        if self.patience is not None and self.patience < 1:
            raise ConfigError("patience must be >= 1 or None, got %d" % self.patience)
        if not (math.isfinite(self.aux_weight) and self.aux_weight >= 0.0):
            raise ConfigError("aux_weight must be finite and >= 0, got %g"
                              % self.aux_weight)
        return self


# ---------------------------------------------------------------------------
# label-guided auxiliary heads


class AuxHeads(fusion_mod.MlpPair):
    """Per-modality video-level classifier heads, h -> h -> C+1, packed as
    an MLP pair: index 0 the audio head (aux_audio), 1 the visual head
    (aux_visual)."""

    NAMES = ("aux_audio", "aux_visual")


def init_aux_heads(hidden_size: int, num_events: int, rng: np.random.Generator,
                   dtype=np.float64) -> AuxHeads:
    """Draw order: audio head, then visual head."""
    return fusion_mod.init_pair(AuxHeads, hidden_size, hidden_size,
                                num_events + 1, rng, dtype)


def aux_objective(heads: AuxHeads, trace: model_mod.PredictionTrace,
                  video_label: np.ndarray, weight: float):
    """Video-level BCE on each encoder's final hidden state.

    Returns (weighted loss, head grads as a RowGrads, one row per head,
    d(audio final h), d(visual final h)).
    """
    # (head, 1, 1, h): each head's state a one-row matrix
    x = np.array((trace.audio_state.h, trace.visual_state.h))[:, None, None]
    out, hidden = fusion_mod.pair_forward(heads, x)
    loss_a, dout_a = model_mod.bce_on_softmax(out[0, 0, 0], video_label)
    loss_v, dout_v = model_mod.bce_on_softmax(out[1, 0, 0], video_label)
    gout = weight * np.array((dout_a, dout_v))[:, None]  # (head, 1, C+1)
    grads, dh = fusion_mod.pair_backward(heads, x[:, :, 0], hidden[:, :, 0], gout)
    return weight * (loss_a + loss_v), RowGrads(grads), dh[0, 0], dh[1, 0]


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class ClassStat:
    name: str
    total: int
    correct: int

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else float("nan")


@dataclass
class EvalReport:
    accuracy: float
    num_segments: int
    per_class: list
    confusion: np.ndarray  # (C+1, C+1) segment counts, [label, prediction]

    def lines(self):
        yield "accuracy %.4f over %d segments" % (self.accuracy, self.num_segments)
        for stat in self.per_class:
            if stat.total:
                yield "  %-16s %4d/%-4d %.4f" % (stat.name, stat.correct,
                                                 stat.total, stat.accuracy)
            else:
                yield "  %-16s %4d/%-4d    -" % (stat.name, 0, 0)


def _check_counts(num_events: int) -> None:
    """Refuse a C whose (C+1) x (C+1) int64 confusion counts take more than
    data.MAX_BYTES, before anything is read or allocated."""
    size = 8 * (num_events + 1) ** 2
    if size > data_mod.MAX_BYTES:
        raise ConfigError(
            "too many classes: C=%d takes %d bytes of confusion counts, over "
            "the limit of %d" % (num_events, size, data_mod.MAX_BYTES))


def _count_chunk(params: ModelParams, videos, init_mode: DecoderInit,
                 buffers: dict, counts: np.ndarray) -> bool:
    """Read the next EVAL_CHUNK videos from the iterator `videos`, project
    and score them, and add their (label, prediction) pairs to the flat
    (C+1) x (C+1) `counts`; False once `videos` is exhausted.  The chunk's
    logits are stacked and predicted with one softmax and one argmax
    (`model.predict_rows`), which give each video's own predictions.  The chunk's
    videos and projections are dropped on return, before the next chunk
    is read.  `buffers` holds one ModelBuffers per sequence length."""
    chunk = list(itertools.islice(videos, EVAL_CHUNK))
    if not chunk:
        return False
    classes = params.num_events + 1
    projections = model_mod.project_inputs(
        params, [seq.audio for seq in chunk], [seq.visual for seq in chunk])
    logits = []
    for seq, proj in zip(chunk, projections):
        if seq.length not in buffers:
            buffers[seq.length] = ModelBuffers.for_model(params, seq.length)
        logits.append(model_mod.forward(params, seq.audio, seq.visual, init_mode,
                                        proj, buffers[seq.length]).logits)
    labels = np.concatenate([seq.labels for seq in chunk], dtype=np.int64)
    if labels.min() < 0 or labels.max() >= classes:
        raise ValueError("segment labels must lie in [0, %d], got range [%d, %d]"
                         % (classes - 1, labels.min(), labels.max()))
    predictions = model_mod.predict_rows(np.concatenate(logits))
    counts += np.bincount(labels * classes + predictions,
                          minlength=classes * classes)
    return True


def evaluate_params(params: ModelParams, sequences, class_names: list,
                    init_mode: DecoderInit = DecoderInit.FUSION) -> EvalReport:
    """Frame accuracy plus a per-class breakdown over the given videos.

    `sequences` may be any iterable of FeatureSequences, a generator
    included.  It is read EVAL_CHUNK videos at a time, and each chunk's
    segments are added to one confusion count, so that no more than a
    chunk of videos, their projections and the counts are held at once.
    """
    classes = params.num_events + 1
    if len(class_names) != classes:
        raise ValueError("expected %d class names, got %d"
                         % (classes, len(class_names)))
    _check_counts(params.num_events)
    counts = np.zeros(classes * classes, np.int64)
    buffers = {}  # one ModelBuffers per sequence length, for the whole split
    videos = iter(sequences)
    while _count_chunk(params, videos, init_mode, buffers, counts):
        pass
    confusion = counts.reshape(classes, classes)
    totals, correct = confusion.sum(axis=1), confusion.diagonal()
    per_class = [ClassStat(name=name, total=int(totals[idx]),
                           correct=int(correct[idx]))
                 for idx, name in enumerate(class_names)]
    # An exact count over an exact count, correctly rounded: the bits of
    # the mean of the per-segment matches.
    num_segments = int(totals.sum())
    accuracy = (int(correct.sum()) / num_segments if num_segments
                else float("nan"))
    return EvalReport(accuracy=accuracy, num_segments=num_segments,
                      per_class=per_class, confusion=confusion)


def evaluate(params: ModelParams, manifest: DatasetManifest, split: str,
             init_mode: DecoderInit = DecoderInit.FUSION) -> EvalReport:
    """`evaluate_params` over a manifest split, streamed from its feature
    files.  The checkpoint's dims and the split's size are checked before
    any file is read."""
    if params.audio_dim != manifest.audio_dim or params.visual_dim != manifest.visual_dim:
        raise data_mod.ManifestError(
            "checkpoint dims (d_a=%d, d_v=%d) do not match manifest (d_a=%d, d_v=%d)"
            % (params.audio_dim, params.visual_dim,
               manifest.audio_dim, manifest.visual_dim))
    if params.num_events != manifest.num_events:
        raise data_mod.ManifestError("checkpoint has C=%d events, manifest has C=%d"
                                     % (params.num_events, manifest.num_events))
    if not manifest.split(split):
        raise data_mod.ManifestError("split %r has no videos" % split)
    return evaluate_params(params, data_mod.iter_split(manifest, split),
                           manifest.class_names(), init_mode)


# ---------------------------------------------------------------------------
# training


def check_size(manifest: DatasetManifest, hidden_size: int) -> None:
    """Refuse a model at the manifest's dims and this hidden size whose
    parameters take more than data.MAX_BYTES in float64, as checkpoints
    hold them.  Training keeps every parameter array in one flat buffer,
    so the bound covers the largest array and all of them together.  The
    validation's confusion counts are held to the same bound."""
    size = 8 * model_mod.param_count(manifest.audio_dim, manifest.visual_dim,
                                     hidden_size, manifest.num_events)
    if size > data_mod.MAX_BYTES:
        raise ConfigError(
            "model too large: h=%d at d_a=%d, d_v=%d, C=%d takes %d bytes of "
            "parameters, over the limit of %d"
            % (hidden_size, manifest.audio_dim, manifest.visual_dim,
               manifest.num_events, size, data_mod.MAX_BYTES))
    _check_counts(manifest.num_events)


@dataclass
class EpochLog:
    epoch: int
    loss: float
    val_accuracy: float

    def line(self) -> str:
        return "%d\t%.6f\t%.4f" % (self.epoch, self.loss, self.val_accuracy)


@dataclass
class TrainResult:
    params: ModelParams          # best-on-val parameters
    config: TrainConfig
    history: list = field(default_factory=list)
    best_epoch: int = 0
    best_val_accuracy: float = float("nan")
    stopped_early: bool = False

    @property
    def epochs_run(self) -> int:
        return len(self.history)


def _minibatch_grads(params: ModelParams, seqs: list, video_labels: list,
                     setting: str, dec_init: DecoderInit,
                     aux: AuxHeads | None, aux_weight: float,
                     out: list | None = None, slots: list | None = None):
    """One minibatch: the summed loss of its videos and their mean gradient,
    dense, as (loss, model grads, head grads or None).  A video's target is
    its segment labels in the supervised setting and its video_labels entry
    in the weak setting.  Every stored array's gradient is one product or
    column sum over the batch's stacked rows, written into the arrays of
    the bundles in `out` (model, then heads) when it is given.  `slots`,
    when given, holds at least one ModelBuffers slot (`ModelBuffers.slot`)
    per video, in which its forward pass runs."""
    supervised = setting == "supervised"
    objective = (model_mod.supervised_objective if supervised
                 else model_mod.weak_objective)
    projections = model_mod.project_inputs(
        params, [seq.audio for seq in seqs], [seq.visual for seq in seqs])
    total = 0.0
    model_rows, head_rows = [], []
    for seq, video_label, proj, buffers in zip(
            seqs, video_labels, projections, slots or [None] * len(seqs)):
        trace = model_mod.forward(params, seq.audio, seq.visual, dec_init, proj,
                                  buffers)
        loss, dlogits = objective(trace, seq.labels if supervised else video_label)
        extra = {}
        if aux is not None:
            aux_loss, aux_grads, dh_a, dh_v = aux_objective(aux, trace, video_label,
                                                            aux_weight)
            loss += aux_loss
            head_rows.append(aux_grads.bundle)
            extra = dict(extra_dh_audio=dh_a, extra_dh_visual=dh_v)
        grads, _ = model_mod.model_backward(trace, dlogits, **extra)
        model_rows.append(grads.bundle)
        total += loss
    scale = 1.0 / len(seqs)
    out = out or [None, None]
    return (total, reduce_rows(model_rows, scale, out[0]),
            reduce_rows(head_rows, scale, out[1]) if head_rows else None)


def train(manifest: DatasetManifest, cfg: TrainConfig,
          log=None) -> TrainResult:
    """Train on the manifest's train split, validating per epoch.

    `log`, when given, receives one tab-separated line per epoch:
    epoch, mean train loss, val frame accuracy.
    """
    cfg.validate()
    check_size(manifest, cfg.hidden_size)
    dtype = cfg.precision.dtype
    train_seqs = data_mod.load_split(manifest, "train")
    val_seqs = data_mod.load_split(manifest, "val")
    if not train_seqs:
        raise ConfigError("train split is empty")

    dec_init, use_aux = INIT_MODES[cfg.init_mode]
    rng = np.random.default_rng(cfg.seed)
    params = model_mod.init_model_params(manifest.audio_dim, manifest.visual_dim,
                                         cfg.hidden_size, manifest.num_events,
                                         rng, dtype)
    aux = (init_aux_heads(cfg.hidden_size, manifest.num_events, rng, dtype)
           if use_aux else None)

    # The weak path sees only video-level labels, fixed before the loop;
    # the aux heads read them too.
    if cfg.setting == "weak" or use_aux:
        video_labels = [seq.video_label().astype(dtype) for seq in train_seqs]
    else:
        video_labels = [None] * len(train_seqs)

    # Every trainable array becomes a view of one flat buffer, and every
    # minibatch's gradient is reduced into views of a second one laid out
    # the same way, so that Adam steps over all of them at once.
    trainables = [params] if aux is None else [params, aux]
    opt_params = pack(trainables)
    opt_grads = np.zeros_like(opt_params)
    grad_bundles = flat_views(opt_grads, trainables)
    grad_views = {name: arr for bundle in grad_bundles
                  for name, arr in bundle.arrays()}
    opt_state = optim.AdamState.for_params(opt_params)
    # One set of LSTM buffers for the whole run: every minibatch video gets
    # its own h and dZ rows, which the reduction reads after the batch,
    # and shares the rest (`ModelBuffers.slot`).  load_split holds every
    # video of a split to the manifest's T.
    first = ModelBuffers.for_model(params, manifest.num_segments)
    slots = [first] + [first.slot()
                       for _ in range(min(cfg.batch_size, len(train_seqs)) - 1)]

    result = TrainResult(params=params, config=cfg)
    # The best-on-val parameters, laid out as the model's part of opt_params
    # (its first `model_size` entries): allocated at the first improvement
    # and overwritten in place at every later one.
    model_size = model_mod.param_count(manifest.audio_dim, manifest.visual_dim,
                                       cfg.hidden_size, manifest.num_events)
    best = None
    since_best = 0
    class_names = manifest.class_names()

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_seqs))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            loss, _, _ = _minibatch_grads(
                params, [train_seqs[i] for i in batch],
                [video_labels[i] for i in batch],
                cfg.setting, dec_init, aux, cfg.aux_weight, grad_bundles, slots)
            epoch_loss += loss
            optim.adam_step(opt_params, opt_grads, grad_views, opt_state,
                            cfg.lr, cfg.clip_norm)
        epoch_loss /= len(train_seqs)
        if not math.isfinite(epoch_loss):
            raise FloatingPointError("training loss went non-finite at epoch %d"
                                     % epoch)

        val_acc = (evaluate_params(params, val_seqs, class_names, dec_init).accuracy
                   if val_seqs else float("nan"))
        entry = EpochLog(epoch=epoch, loss=epoch_loss, val_accuracy=val_acc)
        result.history.append(entry)
        if log is not None:
            log(entry.line())

        improved = val_seqs and (best is None
                                 or val_acc > result.best_val_accuracy)
        if improved:
            result.best_val_accuracy = val_acc
            result.best_epoch = epoch
            if best is None:
                best = opt_params[:model_size].copy()
            else:
                np.copyto(best, opt_params[:model_size])
            since_best = 0
        else:
            since_best += 1
            if cfg.patience is not None and val_seqs and since_best >= cfg.patience:
                result.stopped_early = True
                break

    result.params = params if best is None else flat_views(best, [params])[0]
    return result
