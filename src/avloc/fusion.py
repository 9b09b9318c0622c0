"""Residual cross-modal fusion of the two encoder final states.

For each track (hidden and cell) with its own shared MLP g:

    m  = (g(a) + g(v)) / 2
    a' = tanh(a + m)
    v' = tanh(v + m)
    fused = a' + v'

Both modalities pass through the same g, so the fused value is symmetric
under swapping the audio and visual inputs.  The fused hidden/cell pair
becomes the decoder's initial state.

An MLP pair (`MlpPair`) holds two one-hidden-layer MLPs
y = w2 tanh(w1 x + b1) + b2, packed as an LSTM's gates are: w1
(2, hidden, in), b1 (2, hidden), w2 (2, out, hidden) and b2 (2, out).
It has two users, which differ only in the names of the two MLPs and in
the output width.  The fusion block (`FusionParams`) is the pair of the
hidden track (index 0, g_h) and the cell track (g_c), h -> h -> h; the
trainer's label-guided heads (`trainer.AuxHeads`) are the pair of the
audio and the visual head, h -> h -> C+1.  `tensors()` yields the
per-MLP views under those names, g_h.w1, ..., g_c.b2, so whatever writes
through them (checkpoint loading, finite differences) writes into the
packed arrays.  `pair_forward` takes n one-row inputs per MLP, x
(2, n, 1, in): the fusion block stacks the four states as (2 tracks,
2 modalities, 1, h), the heads the two final hidden states as (2 heads,
1, 1, h).  Each product of a pass is then one batched `np.matmul`:

    forward   (2, n, 1, in) @ (2, 1, in, hidden): every term a vector
              times a matrix, as one MLP applied to one vector
    backward  (2, n, out) @ (2, out, hidden): every term one MLP's n rows
              together, as that MLP's backward stacks them

numpy runs a batched matmul as one BLAS call per pair of matrices, the
call that the per-MLP expression makes, and every other operation is
elementwise, so the results are those of the per-MLP expressions bit
for bit (`tests/test_fusion.py` holds them to `tests/_reference.py` in
float32 and float64, the fusion block at h = 1, 4, 32 and 128 and the
heads at (h, C+1) = (32, 5) and (128, 29)).  Stacking the audio and
visual rows of the forward pass into one matrix product instead changes
the bits: BLAS then runs a matrix product, not two matrix-vector ones.
Per video at h = 32, float32, one BLAS thread (2-core Xeon, numpy 2.4.6,
OpenBLAS), the packed block takes 17 us forward and 13 us backward,
against 25-26 us and 49-51 us one track at a time.  A modality-major
layout, (2 modalities, 2 tracks, 1, h), saves the broadcast views of the
forward pass (15 us) but makes the backward pass work on strided views
(19 us).

Backward passes return their parameter gradients in factored form
(`tree.Rows`), packed: each application of an MLP contributes one row,
so a fusion track gets two rows per video, one per modality, and a head
one.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import ops
from .lstm import LstmState, _glorot
from .ops import ShapeError
from .tree import ParamTree, Rows

TRACKS = ("g_h", "g_c")  # tensor-name prefixes of the hidden and cell track
_FIELDS = ("w1", "b1", "w2", "b2")


@dataclass
class MlpPair(ParamTree):
    """Two MLPs y = w2 tanh(w1 x + b1) + b2, packed: w1 (2, hidden, in),
    b1 (2, hidden), w2 (2, out, hidden), b2 (2, out).  A subclass names
    the two MLPs in NAMES."""

    NAMES: ClassVar[tuple]

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def tensors(self, prefix: str = ""):
        """Per-MLP views in canonical order: w1, b1, w2, b2 of the first
        MLP, then of the second."""
        for k, mlp in enumerate(self.NAMES):
            for name in _FIELDS:
                yield "%s%s.%s" % (prefix, mlp, name), getattr(self, name)[k]

    # The optimizer names and norms the per-MLP arrays, as it did when
    # each MLP was a bundle of its own.
    arrays = tensors


def init_pair(cls, input_size: int, hidden_size: int, output_size: int,
              rng: np.random.Generator, dtype=np.float64):
    """A `cls` pair with Glorot-uniform weights and zero biases.  Draw
    order: w1 then w2 of the first MLP, then of the second."""
    w1, w2 = zip(*[(_glorot(rng, hidden_size, input_size, dtype),
                    _glorot(rng, output_size, hidden_size, dtype)) for _ in range(2)])
    return cls(w1=np.stack(w1), b1=np.zeros((2, hidden_size), dtype=dtype),
               w2=np.stack(w2), b2=np.zeros((2, output_size), dtype=dtype))


def pair_forward(params: MlpPair, x: np.ndarray):
    """Apply each MLP to its n one-row inputs, x (2, n, 1, in).  Returns
    (y (2, n, 1, out), hidden layer (2, n, 1, hidden))."""
    if x.ndim != 4 or (x.shape[0], x.shape[3]) != (2, params.w1.shape[2]):
        raise ShapeError("pair_forward", (2, "n", 1, params.w1.shape[2]), x.shape)
    # The bias adds and the tanh write into the products' own arrays.
    hidden = np.matmul(x, params.w1.transpose(0, 2, 1)[:, None])
    hidden += params.b1[:, None, None]
    np.tanh(hidden, out=hidden)
    y = np.matmul(hidden, params.w2.transpose(0, 2, 1)[:, None])
    y += params.b2[:, None, None]
    return y, hidden


def pair_backward(params: MlpPair, x: np.ndarray, hidden: np.ndarray,
                  gout: np.ndarray):
    """Backward through pair_forward, given its inputs x (2, n, in), its
    hidden layer (2, n, hidden) and the gradient on its output, gout
    (2, n, out).  Returns (param grads as a pair of the same type, of
    `Rows`, grad wrt x (2, n, in))."""
    dz1 = ops.tanh_grad(hidden, np.matmul(gout, params.w2))
    grads = type(params)(w1=Rows(dz1, x), b1=Rows(dz1), w2=Rows(gout, hidden),
                         b2=Rows(gout))
    return grads, np.matmul(dz1, params.w1)


class FusionParams(MlpPair):
    """The fusion block's two MLPs, h -> h -> h: index 0 the hidden track
    (g_h), 1 the cell track (g_c)."""

    NAMES = TRACKS


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
    return init_pair(FusionParams, hidden_size, hidden_size, hidden_size, rng,
                     dtype)


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
    y, hidden = pair_forward(params, x)
    # m = 0.5 (g(a) + g(v)) and tanh(x + m), each formed in one array
    m = np.add(y[:, 0], y[:, 1], out=y[:, 0])
    m *= 0.5
    out = x + m[:, None]
    np.tanh(out, out=out)
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
    grads, dx = pair_backward(params, trace.x, trace.hidden, dm)
    dstate = dz + dx
    return (grads, LstmState(dstate[0, 0], dstate[1, 0]),
            LstmState(dstate[0, 1], dstate[1, 1]))
