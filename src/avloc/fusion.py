"""Residual cross-modal fusion of the two encoder final states.

For each track (hidden and cell) with its own shared MLP g:

    m  = (g(a) + g(v)) / 2
    a' = tanh(a + m)
    v' = tanh(v + m)
    fused = a' + v'

Both modalities pass through the same g, so the fused value is symmetric
under swapping the audio and visual inputs.  The fused hidden/cell pair
becomes the decoder's initial state.

Backward passes return their parameter gradients in factored form
(`tree.Rows`): each application of an MLP contributes one row, so the
shared MLP of a track gets two rows per video, one per modality.
"""

from dataclasses import dataclass

import numpy as np

from . import ops
from .lstm import LstmState, _glorot
from .ops import ShapeError
from .tree import ParamTree, Rows


@dataclass
class MlpParams(ParamTree):
    """One-hidden-layer MLP with tanh: y = w2 @ tanh(w1 @ x + b1) + b2."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @property
    def output_size(self) -> int:
        return self.w2.shape[0]


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
    if gout.shape[-1] != params.output_size:
        raise ShapeError("mlp_backward", (params.output_size,), gout.shape)
    x, hidden, gout = (np.atleast_2d(a) for a in (trace.x, trace.hidden, gout))
    dz1 = ops.tanh_grad(hidden, gout @ params.w2)
    dx = dz1 @ params.w1
    grads = MlpParams(w1=Rows(dz1, x), b1=Rows(dz1), w2=Rows(gout, hidden),
                      b2=Rows(gout))
    return grads, dx.reshape(trace.x.shape)


@dataclass
class FusionParams(ParamTree):
    g_h: MlpParams  # fuses hidden states
    g_c: MlpParams  # fuses cell states


@dataclass
class _TrackTrace:
    a: np.ndarray
    v: np.ndarray
    mlp_a: MlpTrace
    mlp_v: MlpTrace
    out_a: np.ndarray  # tanh(a + m)
    out_v: np.ndarray  # tanh(v + m)


@dataclass
class FusionTrace:
    hidden: _TrackTrace
    cell: _TrackTrace


def init_fusion_params(hidden_size: int, rng: np.random.Generator,
                       dtype=np.float64) -> FusionParams:
    """Two MLPs (hidden-state fusion drawn first, then cell-state fusion)."""
    g_h = init_mlp_params(hidden_size, hidden_size, hidden_size, rng, dtype)
    g_c = init_mlp_params(hidden_size, hidden_size, hidden_size, rng, dtype)
    return FusionParams(g_h=g_h, g_c=g_c)


def _fuse_track(mlp: MlpParams, a: np.ndarray, v: np.ndarray):
    ga, tr_a = mlp_forward(mlp, a)
    gv, tr_v = mlp_forward(mlp, v)
    m = 0.5 * (ga + gv)
    out_a = np.tanh(a + m)
    out_v = np.tanh(v + m)
    return out_a + out_v, _TrackTrace(a, v, tr_a, tr_v, out_a, out_v)


def _fuse_track_backward(mlp: MlpParams, trace: _TrackTrace, gout: np.ndarray):
    dza = ops.tanh_grad(trace.out_a, gout)
    dzv = ops.tanh_grad(trace.out_v, gout)
    dm = 0.5 * (dza + dzv)
    # Both applications of the shared MLP as two rows: audio, then visual.
    both = MlpTrace(np.stack((trace.a, trace.v)),
                    np.stack((trace.mlp_a.hidden, trace.mlp_v.hidden)))
    mlp_grads, dx = mlp_backward(mlp, both, np.stack((dm, dm)))
    return mlp_grads, dza + dx[0], dzv + dx[1]


def fuse(params: FusionParams, audio: LstmState, visual: LstmState):
    """Fuse the two final encoder states.  Returns (LstmState, FusionTrace)."""
    if audio.h.shape != visual.h.shape or audio.c.shape != visual.c.shape:
        raise ShapeError("fuse", audio.h.shape, visual.h.shape)
    h_f, tr_h = _fuse_track(params.g_h, audio.h, visual.h)
    c_f, tr_c = _fuse_track(params.g_c, audio.c, visual.c)
    return LstmState(h_f, c_f), FusionTrace(hidden=tr_h, cell=tr_c)


def fuse_backward(params: FusionParams, trace: FusionTrace,
                  dh: np.ndarray, dc: np.ndarray):
    """Backward through fuse.

    Returns (param grads as a FusionParams of `Rows`, grads on the audio
    state, grads on the visual state), the state grads as LstmState
    bundles.
    """
    gh, dah, dvh = _fuse_track_backward(params.g_h, trace.hidden, dh)
    gc, dac, dvc = _fuse_track_backward(params.g_c, trace.cell, dc)
    grads = FusionParams(g_h=gh, g_c=gc)
    return grads, LstmState(dah, dac), LstmState(dvh, dvc)
