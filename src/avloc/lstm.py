"""Single-layer LSTM: sequence unroll and backprop through time.

Gate equations (gate order f, i, o, candidate):

    f_t = sigmoid(Wf x_t + Uf h_{t-1} + bf)
    i_t = sigmoid(Wi x_t + Ui h_{t-1} + bi)
    o_t = sigmoid(Wo x_t + Uo h_{t-1} + bo)
    g_t = tanh   (Wc x_t + Uc h_{t-1} + bc)
    c_t = f_t * c_{t-1} + i_t * g_t
    h_t = o_t * tanh(c_t)

Sequences start from h_0 = c_0 = 0 unless an initial state is given.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import ops
from .ops import ShapeError
from .tree import ParamTree

GATES = ("f", "i", "o", "c")


@dataclass
class LstmParams(ParamTree):
    """Weight bundle for one LSTM. W_g: (h, d), U_g: (h, h), b_g: (h,).
    Fields are in canonical order: per gate f, i, o, c the triple W, U, b."""

    wf: np.ndarray
    uf: np.ndarray
    bf: np.ndarray
    wi: np.ndarray
    ui: np.ndarray
    bi: np.ndarray
    wo: np.ndarray
    uo: np.ndarray
    bo: np.ndarray
    wc: np.ndarray
    uc: np.ndarray
    bc: np.ndarray

    @property
    def input_size(self) -> int:
        return self.wf.shape[1]

    @property
    def hidden_size(self) -> int:
        return self.wf.shape[0]


@dataclass
class LstmState:
    h: np.ndarray
    c: np.ndarray


@dataclass
class LstmTrace:
    """Stacked per-step activations for a whole sequence (each (T, h))."""

    xs: np.ndarray
    h0: np.ndarray
    c0: np.ndarray
    f: np.ndarray
    i: np.ndarray
    o: np.ndarray
    g: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray


def _glorot(rng: np.random.Generator | None, rows: int, cols: int,
            dtype) -> np.ndarray:
    """Glorot-uniform weights; zeros, with nothing drawn, when rng is None."""
    if rng is None:
        return np.zeros((rows, cols), dtype=dtype)
    lim = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-lim, lim, size=(rows, cols)).astype(dtype)


def init_lstm_params(input_size: int, hidden_size: int, rng: np.random.Generator,
                     dtype=np.float64, forget_bias: float = 1.0) -> LstmParams:
    """Glorot-uniform weights, zero biases except the forget bias.

    RNG draw order is fixed (Wf, Uf, Wi, Ui, Wo, Uo, Wc, Uc) so a seeded
    generator reproduces the same parameters.
    """
    if input_size < 1 or hidden_size < 1:
        raise ValueError("LSTM sizes must be >= 1, got d=%d h=%d"
                         % (input_size, hidden_size))
    d, h = input_size, hidden_size
    fields = {}
    for g in GATES:
        fields["w" + g] = _glorot(rng, h, d, dtype)
        fields["u" + g] = _glorot(rng, h, h, dtype)
        fields["b" + g] = np.zeros(h, dtype=dtype)
    fields["bf"] = np.full(h, forget_bias, dtype=dtype)
    return LstmParams(**fields)


def run_lstm(params: LstmParams, xs: np.ndarray,
             init: LstmState | None = None):
    """Unroll over xs of shape (T, d) from init, or from the all-zero state.
    Returns (final state, trace)."""
    h = params.hidden_size
    if xs.ndim != 2 or xs.shape[1] != params.input_size:
        raise ShapeError("run_lstm inputs", ("T", params.input_size), xs.shape)
    steps = xs.shape[0]
    if steps == 0:
        raise ValueError("run_lstm: empty sequence")
    dtype = params.wf.dtype  # parameter precision governs the activations
    if init is None:
        init = LstmState(np.zeros(h, dtype=dtype), np.zeros(h, dtype=dtype))
    if init.h.shape != (h,) or init.c.shape != (h,):
        raise ShapeError("run_lstm state", (h,), init.h.shape, init.c.shape)
    trace = LstmTrace(xs, init.h, init.c,
                      *(np.empty((steps, h), dtype=dtype) for _ in range(7)))
    h_prev, c_prev = init.h, init.c
    for t in range(steps):
        x = xs[t]
        f = ops.sigmoid(ops.matvec(params.wf, x) + ops.matvec(params.uf, h_prev) + params.bf)
        i = ops.sigmoid(ops.matvec(params.wi, x) + ops.matvec(params.ui, h_prev) + params.bi)
        o = ops.sigmoid(ops.matvec(params.wo, x) + ops.matvec(params.uo, h_prev) + params.bo)
        g = ops.tanh(ops.matvec(params.wc, x) + ops.matvec(params.uc, h_prev) + params.bc)
        c_prev = f * c_prev + i * g
        tanh_c = ops.tanh(c_prev)
        h_prev = o * tanh_c
        trace.f[t], trace.i[t], trace.o[t], trace.g[t] = f, i, o, g
        trace.c[t], trace.tanh_c[t], trace.h[t] = c_prev, tanh_c, h_prev
    return LstmState(h_prev, c_prev), trace


def lstm_sequence_backward(params: LstmParams, trace: LstmTrace,
                           dh_steps: np.ndarray | None = None,
                           dh_final: np.ndarray | None = None,
                           dc_final: np.ndarray | None = None):
    """BPTT through a recorded unroll.

    dh_steps: optional (T, h) gradients flowing into each h_t from outside
    (e.g. a per-step output layer).  dh_final / dc_final: extra gradients on
    the last state.  Returns (param grads, dh0, dc0), the last two the
    gradients on the initial state.
    """
    steps, h = trace.h.shape
    if trace.f.shape != (steps, h) or params.hidden_size != h:
        raise ShapeError("lstm_sequence_backward", (steps, h), trace.f.shape,
                         (params.hidden_size,))
    if dh_steps is not None and dh_steps.shape != (steps, h):
        raise ShapeError("lstm_sequence_backward dh_steps", (steps, h), dh_steps.shape)
    grads = params.map(np.zeros_like)
    dh_next = np.zeros(h, dtype=trace.h.dtype)
    dc_next = np.zeros(h, dtype=trace.h.dtype)
    if dh_final is not None:
        dh_next = dh_next + dh_final
    if dc_final is not None:
        dc_next = dc_next + dc_final
    for t in range(steps - 1, -1, -1):
        dh = dh_next if dh_steps is None else dh_next + dh_steps[t]
        f, i, o, g = trace.f[t], trace.i[t], trace.o[t], trace.g[t]
        h_prev = trace.h[t - 1] if t > 0 else trace.h0
        c_prev = trace.c[t - 1] if t > 0 else trace.c0
        do = dh * trace.tanh_c[t]
        dc = ops.tanh_grad(trace.tanh_c[t], dh * o) + dc_next
        d_pre = {
            "f": ops.sigmoid_grad(f, dc * c_prev),
            "i": ops.sigmoid_grad(i, dc * g),
            "o": ops.sigmoid_grad(o, do),
            "c": ops.tanh_grad(g, dc * i),
        }
        dh_next = np.zeros(h, dtype=trace.h.dtype)
        for gate, dz in d_pre.items():
            du, dh_part = ops.matvec_grad(getattr(params, "u" + gate), h_prev, dz)
            getattr(grads, "w" + gate)[:] += np.outer(dz, trace.xs[t])
            getattr(grads, "u" + gate)[:] += du
            getattr(grads, "b" + gate)[:] += dz
            dh_next += dh_part
        dc_next = dc * f
    return grads, dh_next, dc_next

