"""Residual cross-modal fusion of the two encoder final states.

For each track (hidden and cell) with its own shared MLP g:

    m  = (g(a) + g(v)) / 2
    a' = tanh(a + m)
    v' = tanh(v + m)
    fused = a' + v'

Both modalities pass through the same g, so the fused value is symmetric
under swapping the audio and visual inputs.  The fused hidden/cell pair
becomes the decoder's initial state.

The two tracks' MLPs are stored track-packed, as an LSTM's gates are:
w1 and w2 are (2, h, h), b1 and b2 are (2, h), index 0 the hidden track
and 1 the cell track.  `tensors()` yields the per-track views under the
names g_h.w1, ..., g_c.b2, so whatever writes through them (checkpoint
loading, finite differences) writes into the packed arrays.  A pass
stacks the four states as x (2 tracks, 2 modalities, h) and makes each
product of both tracks and both modalities one batched `np.matmul`:

    forward   (2, 2, 1, h) @ (2, 1, h, h): every term a vector times a
              matrix, as the per-track MLP applies g to a, then to v
    backward  (2, 2, h) @ (2, h, h): every term a track's audio and
              visual rows together, as the per-track backward stacks them

numpy runs a batched matmul as one BLAS call per pair of matrices, the
call that the per-track expression makes, and every other operation is
elementwise, so the results are those of the per-track expressions bit
for bit (`tests/test_fusion.py` holds them to `tests/_reference.py` in
float32 and float64 at h = 1, 4, 32 and 128).  Stacking the audio and
visual rows of the forward pass into one matrix product instead changes
the bits: BLAS then runs a matrix product, not two matrix-vector ones.
Per video at h = 32, float32, one BLAS thread (2-core Xeon, numpy 2.4.6,
OpenBLAS), the packed block takes 17 us forward and 13 us backward,
against 25-26 us and 49-51 us one track at a time.  A modality-major
layout, (2 modalities, 2 tracks, 1, h), saves the broadcast views of the
forward pass (15 us) but makes the backward pass work on strided views
(19 us).

Backward passes return their parameter gradients in factored form
(`tree.Rows`), track-packed: each application of a track's MLP
contributes one row, so a track gets two rows per video, one per
modality.  `mlp_forward` and `mlp_backward` remain for the trainer's
auxiliary heads.
"""

from dataclasses import dataclass

import numpy as np

from . import ops
from .lstm import LstmState, _glorot
from .ops import ShapeError
from .tree import ParamTree, Rows

TRACKS = ("g_h", "g_c")  # tensor-name prefixes of the hidden and cell track
_FIELDS = ("w1", "b1", "w2", "b2")


@dataclass
class MlpParams(ParamTree):
    """One-hidden-layer MLP with tanh: y = w2 @ tanh(w1 @ x + b1) + b2."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class MlpTrace:
    x: np.ndarray
    hidden: np.ndarray  # tanh(w1 @ x + b1)


def init_mlp_params(input_size: int, hidden_size: int, output_size: int,
                    rng: np.random.Generator, dtype=np.float64) -> MlpParams:
    """Glorot-uniform weights, zero biases; draw order w1 then w2."""
    return MlpParams(
        w1=_glorot(rng, hidden_size, input_size, dtype),
        b1=np.zeros(hidden_size, dtype=dtype),
        w2=_glorot(rng, output_size, hidden_size, dtype),
        b2=np.zeros(output_size, dtype=dtype),
    )


def mlp_forward(params: MlpParams, x: np.ndarray):
    if x.shape[-1:] != params.w1.shape[1:]:
        raise ShapeError("mlp_forward", params.w1.shape, x.shape)
    hidden = np.tanh(x @ params.w1.T + params.b1)
    y = hidden @ params.w2.T + params.b2
    return y, MlpTrace(x, hidden)


def mlp_backward(params: MlpParams, trace: MlpTrace, gout: np.ndarray):
    """Backward through one application of the MLP (x, hidden and gout
    vectors) or through n of them (each stacked as (n, .) rows).  Returns
    (param grads as an MlpParams of `Rows`, grad wrt x shaped like x)."""
    if gout.shape[-1] != params.w2.shape[0]:
        raise ShapeError("mlp_backward", params.w2.shape[:1], gout.shape)
    x, hidden, gout = (np.atleast_2d(a) for a in (trace.x, trace.hidden, gout))
    dz1 = ops.tanh_grad(hidden, gout @ params.w2)
    dx = dz1 @ params.w1
    grads = MlpParams(w1=Rows(dz1, x), b1=Rows(dz1), w2=Rows(gout, hidden),
                      b2=Rows(gout))
    return grads, dx.reshape(trace.x.shape)


@dataclass
class FusionParams(ParamTree):
    """Both tracks' MLPs y = w2 tanh(w1 x + b1) + b2, track-packed: w1 and
    w2 (2, h, h), b1 and b2 (2, h), index 0 the hidden track."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def tensors(self, prefix: str = ""):
        """Per-track views in canonical order: w1, b1, w2, b2 of the hidden
        track (g_h), then of the cell track (g_c)."""
        for k, track in enumerate(TRACKS):
            for name in _FIELDS:
                yield "%s%s.%s" % (prefix, track, name), getattr(self, name)[k]

    # The optimizer names and norms the per-track arrays, as it did when
    # each track was a bundle of its own.
    arrays = tensors


@dataclass
class FusionTrace:
    """Both tracks at once, each (2 tracks, 2 modalities, h): the states
    x, the MLP's hidden layer and tanh(x + m)."""

    x: np.ndarray
    hidden: np.ndarray
    out: np.ndarray


def init_fusion_params(hidden_size: int, rng: np.random.Generator,
                       dtype=np.float64) -> FusionParams:
    """Two MLPs (hidden-state fusion drawn first, then cell-state fusion)."""
    mlps = [init_mlp_params(hidden_size, hidden_size, hidden_size, rng, dtype)
            for _ in TRACKS]
    return FusionParams(*(np.stack([getattr(mlp, name) for mlp in mlps])
                          for name in _FIELDS))


def no_grads(params: FusionParams) -> FusionParams:
    """The factored gradient of a fusion block that was not applied: no
    rows, so each array's gradient is zero."""
    none = np.empty((len(TRACKS), 0, params.w1.shape[-1]), dtype=params.w1.dtype)
    return FusionParams(Rows(none, none), Rows(none), Rows(none, none), Rows(none))


def fuse(params: FusionParams, audio: LstmState, visual: LstmState):
    """Fuse the two final encoder states.  Returns (LstmState, FusionTrace)."""
    if audio.h.shape != visual.h.shape or audio.c.shape != visual.c.shape:
        raise ShapeError("fuse", audio.h.shape, visual.h.shape)
    if audio.h.shape != audio.c.shape:
        raise ShapeError("fuse", audio.h.shape, audio.c.shape)
    # (track, modality, 1, h): each state a one-row matrix
    x = np.array(((audio.h, visual.h), (audio.c, visual.c)))[:, :, None]
    hidden = np.tanh(np.matmul(x, params.w1.transpose(0, 2, 1)[:, None])
                     + params.b1[:, None, None])
    y = (np.matmul(hidden, params.w2.transpose(0, 2, 1)[:, None])
         + params.b2[:, None, None])
    m = 0.5 * (y[:, 0] + y[:, 1])
    out = np.tanh(x + m[:, None])
    fused = out[:, 0, 0] + out[:, 1, 0]
    return (LstmState(fused[0], fused[1]),
            FusionTrace(x[:, :, 0], hidden[:, :, 0], out[:, :, 0]))


def fuse_backward(params: FusionParams, trace: FusionTrace,
                  dh: np.ndarray, dc: np.ndarray):
    """Backward through fuse.

    Returns (param grads as a FusionParams of `Rows`, grads on the audio
    state, grads on the visual state), the state grads as LstmState
    bundles.
    """
    dz = ops.tanh_grad(trace.out, np.array(((dh, dh), (dc, dc))))
    # dm = (dz_a + dz_v) / 2 in both rows of its track, audio and visual,
    # as the two applications of the track's MLP take it (a + b is b + a
    # to the bit).
    dm = 0.5 * (dz + dz[:, ::-1])
    dz1 = ops.tanh_grad(trace.hidden, np.matmul(dm, params.w2))
    dstate = dz + np.matmul(dz1, params.w1)
    grads = FusionParams(w1=Rows(dz1, trace.x), b1=Rows(dz1),
                         w2=Rows(dm, trace.hidden), b2=Rows(dm))
    return (grads, LstmState(dstate[0, 0], dstate[1, 0]),
            LstmState(dstate[0, 1], dstate[1, 1]))
