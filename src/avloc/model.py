"""Full event-localization model: two encoders, fusion, conditioned decoder.

The audio and visual encoders each run over their feature sequence; their
final states are fused into the decoder's initial state.  The decoder
consumes the concatenated per-segment features and a final affine layer
turns each decoder hidden state into logits over C+1 classes (index C is
the background class).  Per-segment logits are average-pooled into a
video-level prediction.

Two training objectives are provided: per-segment categorical
cross-entropy (supervised) and class-averaged binary cross-entropy on the
pooled softmax (weakly supervised).  All gradients are hand-derived and
flow through the decoder, the fusion block and both encoders.

`project_inputs` computes the three LSTMs' input projections for the
segments of any number of videos at once; `forward` takes one video's
rows of them, or projects the video itself, and runs its unrolls in the
`ModelBuffers` it is given, or in new ones.  `model_backward` returns one
video's gradient in factored form (`tree.RowGrads`), which a trainer
reduces with those of the other videos of its minibatch.
"""

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fusion as fusion_mod
from . import lstm as lstm_mod
from . import ops
from .fusion import FusionParams, FusionTrace
from .lstm import LstmBuffers, LstmParams, LstmState, LstmTrace, _glorot
from .ops import ShapeError
from .tree import ParamTree, RowGrads, Rows

LOG_CLAMP = 1e-12  # floor for log arguments in the BCE losses


class DecoderInit(enum.Enum):
    """How the decoder's initial (h, c) is built from the encoder states."""

    FUSION = "fusion"          # residual fusion block (the full model)
    AUDIO_ONLY = "audio_only"  # audio encoder final state
    VISUAL_ONLY = "visual_only"  # visual encoder final state
    SUM = "sum"                # elementwise sum of both final states


@dataclass
class ModelParams(ParamTree):
    enc_audio: LstmParams
    enc_visual: LstmParams
    fusion: FusionParams
    decoder: LstmParams
    out_w: np.ndarray  # (C+1, h)
    out_b: np.ndarray  # (C+1,)

    @property
    def audio_dim(self) -> int:
        return self.enc_audio.input_size

    @property
    def visual_dim(self) -> int:
        return self.enc_visual.input_size

    @property
    def hidden_size(self) -> int:
        return self.enc_audio.hidden_size

    @property
    def num_events(self) -> int:
        """C; the output layer covers C+1 classes including background."""
        return self.out_w.shape[0] - 1


def init_model_params(audio_dim: int, visual_dim: int, hidden_size: int,
                      num_events: int, rng: np.random.Generator,
                      dtype=np.float64) -> ModelParams:
    """Draw order: audio encoder, visual encoder, fusion, decoder, output.
    With rng=None nothing is drawn and the weight matrices are zero."""
    if num_events < 1:
        raise ValueError("num_events must be >= 1, got %d" % num_events)
    return ModelParams(
        enc_audio=lstm_mod.init_lstm_params(audio_dim, hidden_size, rng, dtype),
        enc_visual=lstm_mod.init_lstm_params(visual_dim, hidden_size, rng, dtype),
        fusion=fusion_mod.init_fusion_params(hidden_size, rng, dtype),
        decoder=lstm_mod.init_lstm_params(audio_dim + visual_dim, hidden_size,
                                          rng, dtype),
        out_w=_glorot(rng, num_events + 1, hidden_size, dtype),
        out_b=np.zeros(num_events + 1, dtype=dtype),
    )


def param_count(d_a: int, d_v: int, h: int, c: int) -> int:
    """Entries in a ModelParams of these dimensions."""
    def lstm(d):
        return 4 * h * (d + h + 1)
    fusion = 2 * (2 * h * h + 2 * h)  # two h -> h -> h MLPs
    return lstm(d_a) + lstm(d_v) + fusion + lstm(d_a + d_v) + (c + 1) * (h + 1)


def cast_model(params: ModelParams, dtype) -> ModelParams:
    return params.map(lambda arr: arr.astype(dtype))


class ModelBuffers(NamedTuple):
    """The `lstm.LstmBuffers` of the audio encoder, the visual encoder and
    the decoder, for videos of one length.  `forward` writes its three
    unrolls into them, so its trace holds until the next forward pass with
    the same buffers."""

    audio: LstmBuffers
    visual: LstmBuffers
    decoder: LstmBuffers

    @classmethod
    def for_model(cls, params: ModelParams, steps: int) -> "ModelBuffers":
        """Buffers for videos of `steps` segments at the model's h and dtype."""
        dtype = params.decoder.w.dtype
        return cls(*(LstmBuffers(steps, params.hidden_size, dtype)
                     for _ in range(3)))

    def slot(self) -> "ModelBuffers":
        """Buffers that share all but the rows a minibatch keeps
        (`LstmBuffers.slot`) with these."""
        return ModelBuffers(*(buffers.slot() for buffers in self))


@dataclass
class PredictionTrace:
    """Everything the forward pass computed, cached for the backward pass."""

    params: ModelParams
    init_mode: DecoderInit
    audio_trace: LstmTrace
    visual_trace: LstmTrace
    audio_state: LstmState
    visual_state: LstmState
    fusion_trace: FusionTrace | None
    dec_trace: LstmTrace     # its xs are the (T, d_a + d_v) decoder inputs
    logits: np.ndarray       # (T, C+1)
    probs: np.ndarray        # (T, C+1), softmax per row

    @property
    def length(self) -> int:
        return self.logits.shape[0]

    @property
    def pooled(self) -> np.ndarray:
        """(C+1,), the mean of the logits; computed when read, because only
        the weak objective reads it."""
        return self.logits.mean(axis=0)


def project_inputs(params: ModelParams, audios: list, visuals: list) -> list:
    """Input projections of the audio encoder, the visual encoder and the
    decoder for a list of videos, each LSTM's in one matrix product over the
    segments of all of them.  audios[i] (T_i, d_a) and visuals[i] (T_i, d_v)
    are video i's features.  Returns, per video, the (T_i, 4h) rows of each
    projection and the (T_i, d_a + d_v) [audio, visual] rows of the
    decoder's inputs, which `forward` takes as proj."""
    # Both modalities are stacked straight into the decoder's input rows,
    # and the encoders project column views of them: no second copy.
    d_a = params.audio_dim
    lengths = [len(a) for a in audios]
    joint = np.empty((sum(lengths), d_a + params.visual_dim),
                     np.result_type(*audios, *visuals))
    audio, visual = joint[:, :d_a], joint[:, d_a:]
    try:
        np.concatenate(audios, out=audio)
        np.concatenate(visuals, out=visual)
    except ValueError as exc:
        raise ShapeError("project_inputs", [a.shape for a in audios],
                         [v.shape for v in visuals]) from exc
    za = lstm_mod.project(params.enc_audio, audio)
    zv = lstm_mod.project(params.enc_visual, visual)
    zd = lstm_mod.project(params.decoder, joint)
    bounds = np.cumsum([0] + lengths).tolist()
    return [(za[lo:hi], zv[lo:hi], zd[lo:hi], joint[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def forward(params: ModelParams, audio: np.ndarray, visual: np.ndarray,
            init_mode: DecoderInit = DecoderInit.FUSION,
            proj: tuple | None = None,
            buffers: ModelBuffers | None = None) -> PredictionTrace:
    """Run the full model over one video.

    audio: (T, d_a) features, visual: (T, d_v) features, same T.  proj,
    when given, is the video's entry of `project_inputs` over a list of
    videos, whose decoder input rows the decoder then reads; without it
    each LSTM projects the video's inputs itself.
    buffers, when given, are ModelBuffers for this T that the three
    unrolls write into; without them each unroll allocates its own.
    """
    if audio.ndim != 2 or visual.ndim != 2 or audio.shape[0] != visual.shape[0]:
        raise ShapeError("forward", audio.shape, visual.shape)
    if audio.shape[0] == 0:
        raise ValueError("forward: empty sequence")
    if proj is None:
        za = zv = zd = None
        dec_inputs = np.concatenate([audio, visual], axis=1)
    else:
        za, zv, zd, dec_inputs = proj
    ba, bv, bd = (None, None, None) if buffers is None else buffers
    a_state, a_trace = lstm_mod.run_lstm(params.enc_audio, audio, zx=za,
                                         buffers=ba)
    v_state, v_trace = lstm_mod.run_lstm(params.enc_visual, visual, zx=zv,
                                         buffers=bv)

    fusion_trace = None
    if init_mode is DecoderInit.FUSION:
        dec_init, fusion_trace = fusion_mod.fuse(params.fusion, a_state, v_state)
    elif init_mode is DecoderInit.AUDIO_ONLY:
        dec_init = a_state
    elif init_mode is DecoderInit.VISUAL_ONLY:
        dec_init = v_state
    else:
        dec_init = LstmState(a_state.h + v_state.h, a_state.c + v_state.c)

    _, dec_trace = lstm_mod.run_lstm(params.decoder, dec_inputs, init=dec_init,
                                     zx=zd, buffers=bd)

    logits = dec_trace.h @ params.out_w.T + params.out_b
    probs = ops.softmax(logits)
    return PredictionTrace(
        params=params, init_mode=init_mode,
        audio_trace=a_trace, visual_trace=v_trace,
        audio_state=a_state, visual_state=v_state,
        fusion_trace=fusion_trace,
        dec_trace=dec_trace,
        logits=logits, probs=probs,
    )


def model_backward(trace: PredictionTrace, dlogits: np.ndarray,
                   extra_dh_audio: np.ndarray | None = None,
                   extra_dh_visual: np.ndarray | None = None):
    """Backpropagate per-segment logit gradients through the whole model.

    extra_dh_audio / extra_dh_visual inject additional gradients on the
    encoder final hidden states (used by the label-guided auxiliary loss).
    Returns (grads, None): grads is a RowGrads over a ModelParams of
    `Rows`, the gradient rows of every layer with the inputs they met.
    """
    params = trace.params
    if dlogits.shape != trace.logits.shape:
        raise ShapeError("model_backward", trace.logits.shape, dlogits.shape)
    dh_steps = dlogits @ params.out_w
    dec_grads, dh0, dc0 = lstm_mod.lstm_sequence_backward(
        params.decoder, trace.dec_trace, dh_steps=dh_steps)

    if trace.init_mode is DecoderInit.FUSION:
        fusion_grads, d_a_state, d_v_state = fusion_mod.fuse_backward(
            params.fusion, trace.fusion_trace, dh0, dc0)
    else:
        fusion_grads = fusion_mod.no_grads(params.fusion)
        zero = np.zeros_like(dh0)
        if trace.init_mode is DecoderInit.AUDIO_ONLY:
            d_a_state = LstmState(dh0, dc0)
            d_v_state = LstmState(zero, zero)
        elif trace.init_mode is DecoderInit.VISUAL_ONLY:
            d_a_state = LstmState(zero, zero)
            d_v_state = LstmState(dh0, dc0)
        else:  # SUM
            d_a_state = LstmState(dh0, dc0)
            d_v_state = LstmState(dh0.copy(), dc0.copy())

    dh_a = d_a_state.h if extra_dh_audio is None else d_a_state.h + extra_dh_audio
    dh_v = d_v_state.h if extra_dh_visual is None else d_v_state.h + extra_dh_visual

    enc_a_grads, _, _ = lstm_mod.lstm_sequence_backward(
        params.enc_audio, trace.audio_trace, dh_final=dh_a, dc_final=d_a_state.c)
    enc_v_grads, _, _ = lstm_mod.lstm_sequence_backward(
        params.enc_visual, trace.visual_trace, dh_final=dh_v, dc_final=d_v_state.c)
    grads = ModelParams(enc_audio=enc_a_grads, enc_visual=enc_v_grads,
                        fusion=fusion_grads, decoder=dec_grads,
                        out_w=Rows(dlogits, trace.dec_trace.h),
                        out_b=Rows(dlogits))
    # Input gradients are not computed; the pair stays for callers that
    # unpack one.
    return RowGrads(grads), None


# ---------------------------------------------------------------------------
# labels


def validate_segment_labels(labels: np.ndarray, num_events: int, length: int):
    """Segment labels are class indices in [0, C]; index C is background."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != length:
        raise ShapeError("segment labels", (length,), labels.shape)
    if labels.size and (labels.min() < 0 or labels.max() > num_events):
        raise ValueError("segment labels must lie in [0, %d], got range [%d, %d]"
                         % (num_events, labels.min(), labels.max()))
    return labels.astype(np.int64)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((len(labels), num_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def video_label_from_segments(labels: np.ndarray, num_events: int) -> np.ndarray:
    """Video-level label: elementwise mean of the segment one-hots."""
    labels = validate_segment_labels(labels, num_events, len(labels))
    if len(labels) == 0:
        raise ValueError("video_label_from_segments: empty labels")
    return one_hot(labels, num_events + 1).mean(axis=0)


def predict_segments(trace: PredictionTrace) -> np.ndarray:
    """Per-segment argmax class; ties resolve to the lowest index."""
    return trace.probs.argmax(axis=1)


# ---------------------------------------------------------------------------
# objectives


def _log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def supervised_objective(trace: PredictionTrace, labels: np.ndarray):
    """Mean per-segment cross-entropy.  Returns (loss, dloss/dlogits)."""
    steps = trace.length
    labels = validate_segment_labels(labels, trace.params.num_events, steps)
    logp = _log_softmax_rows(trace.logits)
    loss = -float(logp[np.arange(steps), labels].mean())
    dlogits = (trace.probs - one_hot(labels, trace.params.num_events + 1)) / steps
    return loss, dlogits.astype(trace.logits.dtype)


def bce_on_softmax(logits: np.ndarray, target: np.ndarray):
    """Class-averaged binary cross-entropy on softmax(logits).

    Log arguments are clamped below at LOG_CLAMP; clamped entries
    contribute zero gradient.  Returns (loss, dloss/dlogits).
    """
    if target.shape != logits.shape or logits.ndim != 1:
        raise ShapeError("bce_on_softmax", logits.shape, target.shape)
    if target.min() < 0.0 or target.max() > 1.0:
        raise ValueError("target entries must lie in [0, 1], got range [%g, %g]"
                         % (target.min(), target.max()))
    k = logits.shape[0]
    p = ops.softmax(logits)
    pos = np.maximum(p, LOG_CLAMP)
    neg = np.maximum(1.0 - p, LOG_CLAMP)
    loss = -float((target * np.log(pos) + (1.0 - target) * np.log(neg)).mean())
    dp = -(target / pos * (p > LOG_CLAMP)
           - (1.0 - target) / neg * (1.0 - p > LOG_CLAMP)) / k
    dlogits = ops.softmax_grad(p, dp.astype(logits.dtype))
    return loss, dlogits


def weak_objective(trace: PredictionTrace, video_label: np.ndarray):
    """BCE on the pooled prediction.  Returns (loss, dloss/dlogits)."""
    loss, dpooled = bce_on_softmax(trace.pooled, np.asarray(video_label))
    steps = trace.length
    dlogits = np.broadcast_to(dpooled / steps, trace.logits.shape).copy()
    return loss, dlogits.astype(trace.logits.dtype)

