"""Training loops for both supervision settings, ablations, evaluation.

Per minibatch, the trainer stacks the videos' segments and computes each
LSTM's input projection once for all of them.  Each video then runs its
own recurrence: forward, objective and a backward pass that returns its
gradient in factored form, as rows (`tree.Rows`).  One reduction over the
rows of the whole batch gives the mean gradient, one matrix product or
column sum per stored array, and Adam with global-norm clipping applies
it.  Evaluation projects streamed chunks of EVAL_CHUNK videos the same
way.  Runs are deterministic for a fixed seed: shuffling comes from one
seeded generator and the rows are stacked in shuffled video order.

Decoder-initialization modes mirror the ablation table: the full fusion
path, a single modality's final state, or "label_guided", which sums both
final states and adds an auxiliary video-level classification loss on each
encoder's final hidden state through a small MLP head.  The heads belong
to the trainer, not the model, and are not part of checkpoints.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import data as data_mod
from . import fusion as fusion_mod
from . import model as model_mod
from . import optim
from .data import ConfigError, DatasetManifest
from .fusion import MlpParams
from .model import DecoderInit, ModelParams
from .ops import Precision
from .tree import ParamTree, RowGrads, reduce_rows

SETTINGS = ("supervised", "weak")

# Videos per input projection in evaluation: enough rows for the product
# to run at full speed, few enough that a split's projections are never
# held at once.
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


@dataclass
class AuxHeads(ParamTree):
    """Per-modality video-level classifier heads, h -> h -> C+1."""

    aux_audio: MlpParams
    aux_visual: MlpParams


def init_aux_heads(hidden_size: int, num_events: int, rng: np.random.Generator,
                   dtype=np.float64) -> AuxHeads:
    """Draw order: audio head, then visual head."""
    return AuxHeads(
        aux_audio=fusion_mod.init_mlp_params(hidden_size, hidden_size,
                                             num_events + 1, rng, dtype),
        aux_visual=fusion_mod.init_mlp_params(hidden_size, hidden_size,
                                              num_events + 1, rng, dtype),
    )


def aux_objective(heads: AuxHeads, trace: model_mod.PredictionTrace,
                  video_label: np.ndarray, weight: float):
    """Video-level BCE on each encoder's final hidden state.

    Returns (weighted loss, head grads as a RowGrads, one row per head,
    d(audio final h), d(visual final h)).
    """
    out_a, tr_a = fusion_mod.mlp_forward(heads.aux_audio, trace.audio_state.h)
    out_v, tr_v = fusion_mod.mlp_forward(heads.aux_visual, trace.visual_state.h)
    loss_a, dout_a = model_mod.bce_on_softmax(out_a, video_label)
    loss_v, dout_v = model_mod.bce_on_softmax(out_v, video_label)
    grads_a, dh_a = fusion_mod.mlp_backward(heads.aux_audio, tr_a, weight * dout_a)
    grads_v, dh_v = fusion_mod.mlp_backward(heads.aux_visual, tr_v, weight * dout_v)
    return (weight * (loss_a + loss_v), RowGrads(AuxHeads(grads_a, grads_v)),
            dh_a, dh_v)


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

    def lines(self):
        yield "accuracy %.4f over %d segments" % (self.accuracy, self.num_segments)
        for stat in self.per_class:
            if stat.total:
                yield "  %-16s %4d/%-4d %.4f" % (stat.name, stat.correct,
                                                 stat.total, stat.accuracy)
            else:
                yield "  %-16s %4d/%-4d    -" % (stat.name, 0, 0)


def evaluate_params(params: ModelParams, sequences: list, class_names: list,
                    init_mode: DecoderInit = DecoderInit.FUSION) -> EvalReport:
    """Frame accuracy plus a per-class breakdown over the given videos."""
    if len(class_names) != params.num_events + 1:
        raise ValueError("expected %d class names, got %d"
                         % (params.num_events + 1, len(class_names)))
    predictions = []
    labels = []
    for start in range(0, len(sequences), EVAL_CHUNK):
        chunk = sequences[start:start + EVAL_CHUNK]
        projections = model_mod.project_inputs(
            params, [seq.audio for seq in chunk], [seq.visual for seq in chunk])
        for seq, proj in zip(chunk, projections):
            trace = model_mod.forward(params, seq.audio, seq.visual, init_mode,
                                      proj)
            predictions.append(model_mod.predict_segments(trace))
            labels.append(seq.labels)
    predictions = np.concatenate(predictions) if predictions else np.zeros(0, np.int64)
    labels = np.concatenate(labels) if labels else np.zeros(0, np.int64)
    per_class = []
    for idx, name in enumerate(class_names):
        mask = labels == idx
        per_class.append(ClassStat(name=name, total=int(mask.sum()),
                                   correct=int((predictions[mask] == idx).sum())))
    accuracy = data_mod.frame_accuracy(predictions, labels) if labels.size else float("nan")
    return EvalReport(accuracy=accuracy, num_segments=int(labels.size),
                      per_class=per_class)


def evaluate(params: ModelParams, manifest: DatasetManifest, split: str,
             init_mode: DecoderInit = DecoderInit.FUSION) -> EvalReport:
    if params.audio_dim != manifest.audio_dim or params.visual_dim != manifest.visual_dim:
        raise data_mod.ManifestError(
            "checkpoint dims (d_a=%d, d_v=%d) do not match manifest (d_a=%d, d_v=%d)"
            % (params.audio_dim, params.visual_dim,
               manifest.audio_dim, manifest.visual_dim))
    if params.num_events != manifest.num_events:
        raise data_mod.ManifestError("checkpoint has C=%d events, manifest has C=%d"
                                     % (params.num_events, manifest.num_events))
    sequences = data_mod.load_split(manifest, split)
    if not sequences:
        raise data_mod.ManifestError("split %r has no videos" % split)
    return evaluate_params(params, sequences, manifest.class_names(), init_mode)


# ---------------------------------------------------------------------------
# training


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
                     aux: AuxHeads | None, aux_weight: float):
    """One minibatch: the summed loss of its videos and their mean gradient,
    dense, as (loss, model grads, head grads or None).  A video's target is
    its segment labels in the supervised setting and its video_labels entry
    in the weak setting.  Every stored array's gradient is one product or
    column sum over the batch's stacked rows."""
    supervised = setting == "supervised"
    objective = (model_mod.supervised_objective if supervised
                 else model_mod.weak_objective)
    projections = model_mod.project_inputs(
        params, [seq.audio for seq in seqs], [seq.visual for seq in seqs])
    total = 0.0
    model_rows, head_rows = [], []
    for seq, video_label, proj in zip(seqs, video_labels, projections):
        trace = model_mod.forward(params, seq.audio, seq.visual, dec_init, proj)
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
    return (total, reduce_rows(model_rows, scale),
            reduce_rows(head_rows, scale) if head_rows else None)


def train(manifest: DatasetManifest, cfg: TrainConfig,
          log=None) -> TrainResult:
    """Train on the manifest's train split, validating per epoch.

    `log`, when given, receives one tab-separated line per epoch:
    epoch, mean train loss, val frame accuracy.
    """
    cfg.validate()
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

    # One update per stored (gate-packed) array instead of one per gate view.
    opt_params = dict(params.arrays())
    if aux is not None:
        opt_params.update(aux.arrays())
    opt_state = optim.AdamState.for_params(opt_params)

    result = TrainResult(params=params, config=cfg)
    best_params = None
    since_best = 0
    class_names = manifest.class_names()

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_seqs))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            loss, grads, aux_grads = _minibatch_grads(
                params, [train_seqs[i] for i in batch],
                [video_labels[i] for i in batch],
                cfg.setting, dec_init, aux, cfg.aux_weight)
            epoch_loss += loss
            dense = dict(grads.arrays())
            if aux_grads is not None:
                dense.update(aux_grads.arrays())
            optim.adam_step(opt_params, dense, opt_state, cfg.lr, cfg.clip_norm)
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

        improved = val_seqs and (best_params is None
                                 or val_acc > result.best_val_accuracy)
        if improved:
            result.best_val_accuracy = val_acc
            result.best_epoch = epoch
            best_params = params.map(np.copy)
            since_best = 0
        else:
            since_best += 1
            if cfg.patience is not None and val_seqs and since_best >= cfg.patience:
                result.stopped_early = True
                break

    result.params = best_params if best_params is not None else params
    return result
