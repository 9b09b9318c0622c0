"""Single-layer LSTM: sequence unroll and backprop through time.

Gate equations (gate order f, i, o, candidate):

    f_t = sigmoid(Wf x_t + Uf h_{t-1} + bf)
    i_t = sigmoid(Wi x_t + Ui h_{t-1} + bi)
    o_t = sigmoid(Wo x_t + Uo h_{t-1} + bo)
    g_t = tanh   (Wc x_t + Uc h_{t-1} + bc)
    c_t = f_t * c_{t-1} + i_t * g_t
    h_t = o_t * tanh(c_t)

Sequences start from h_0 = c_0 = 0 unless an initial state is given.

The four gates are stored packed: W is (4h, d), U is (4h, h) and b is
(4h,), with the row blocks of h in gate order f, i, o, c.  The unroll
projects every input at once, X W^T + b, so a step makes one U h_{t-1}
matvec for all gates.  Backprop stacks each step's packed gate gradient
dz as a row of dZ (T, 4h), steps back with one U^T dz, and after the loop
forms dW = dZ^T X and dU = dZ^T [h_0; ...; h_{T-1}] with one matrix
product each, and db as the column sums of dZ.  Those sums run in
another order than per step and per gate, so results agree with the
per-gate algorithm to rounding, not bit for bit.

`LstmParams.tensors()` yields the per-gate row blocks (Wf, Uf, bf, Wi,
...) as views of the packed arrays, so whatever writes through them
(Adam, checkpoint loading, finite differences) writes into the packed
weights.
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
    """Weight bundle for one LSTM: w (4h, d), u (4h, h), b (4h,), each the
    row blocks of gates f, i, o, c stacked in that order."""

    w: np.ndarray
    u: np.ndarray
    b: np.ndarray

    def tensors(self, prefix: str = ""):
        """Per-gate views in canonical order: for gates f, i, o, c the
        triple W, U, b, named wf, uf, bf, wi, ..., bc."""
        h = self.hidden_size
        for k, gate in enumerate(GATES):
            rows = slice(k * h, (k + 1) * h)
            yield prefix + "w" + gate, self.w[rows]
            yield prefix + "u" + gate, self.u[rows]
            yield prefix + "b" + gate, self.b[rows]

    @property
    def input_size(self) -> int:
        return self.w.shape[1]

    @property
    def hidden_size(self) -> int:
        return self.u.shape[1]


@dataclass
class LstmState:
    h: np.ndarray
    c: np.ndarray


@dataclass
class LstmTrace:
    """Stacked per-step activations for a whole sequence: the gate
    activations f, i, o, g side by side in `gates` (T, 4h), the rest (T, h)."""

    xs: np.ndarray
    h0: np.ndarray
    c0: np.ndarray
    gates: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray

    def _gate(self, k: int) -> np.ndarray:
        size = self.h.shape[1]
        return self.gates[:, k * size:(k + 1) * size]

    @property
    def f(self) -> np.ndarray:
        return self._gate(0)

    @property
    def i(self) -> np.ndarray:
        return self._gate(1)

    @property
    def o(self) -> np.ndarray:
        return self._gate(2)

    @property
    def g(self) -> np.ndarray:
        return self._gate(3)


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
    generator reproduces the same parameters.  With rng=None nothing is
    drawn and the weights are zero.
    """
    if input_size < 1 or hidden_size < 1:
        raise ValueError("LSTM sizes must be >= 1, got d=%d h=%d"
                         % (input_size, hidden_size))
    d, h = input_size, hidden_size
    w = np.zeros((4 * h, d), dtype=dtype)
    u = np.zeros((4 * h, h), dtype=dtype)
    b = np.zeros(4 * h, dtype=dtype)
    b[:h] = forget_bias
    if rng is not None:
        for k in range(len(GATES)):
            w[k * h:(k + 1) * h] = _glorot(rng, h, d, dtype)
            u[k * h:(k + 1) * h] = _glorot(rng, h, h, dtype)
    return LstmParams(w, u, b)


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
    dtype = params.w.dtype  # parameter precision governs the activations
    if init is None:
        init = LstmState(np.zeros(h, dtype=dtype), np.zeros(h, dtype=dtype))
    if init.h.shape != (h,) or init.c.shape != (h,):
        raise ShapeError("run_lstm state", (h,), init.h.shape, init.c.shape)
    trace = LstmTrace(xs, init.h, init.c, np.empty((steps, 4 * h), dtype=dtype),
                      *(np.empty((steps, h), dtype=dtype) for _ in range(3)))
    # The input projection of every step at once; only U h_{t-1} recurs.
    zx = xs @ params.w.T + params.b
    h_prev, c_prev = init.h, init.c
    for t in range(steps):
        z = zx[t] + params.u @ h_prev
        sig = ops.sigmoid(z[:3 * h])
        g = ops.tanh(z[3 * h:])
        f, i, o = sig[:h], sig[h:2 * h], sig[2 * h:]
        c_prev = f * c_prev + i * g
        tanh_c = ops.tanh(c_prev)
        h_prev = o * tanh_c
        trace.gates[t, :3 * h], trace.gates[t, 3 * h:] = sig, g
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
    if trace.gates.shape != (steps, 4 * h) or params.hidden_size != h:
        raise ShapeError("lstm_sequence_backward", (steps, 4 * h),
                         trace.gates.shape, (params.hidden_size,))
    if dh_steps is not None and dh_steps.shape != (steps, h):
        raise ShapeError("lstm_sequence_backward dh_steps", (steps, h), dh_steps.shape)
    # Row t holds step t's packed dz; dW, dU and db come from all rows at once.
    dz_all = np.empty((steps, 4 * h), dtype=trace.gates.dtype)
    dh_next = np.zeros(h, dtype=trace.h.dtype)
    dc_next = np.zeros(h, dtype=trace.h.dtype)
    if dh_final is not None:
        dh_next = dh_next + dh_final
    if dc_final is not None:
        dc_next = dc_next + dc_final
    for t in range(steps - 1, -1, -1):
        dh = dh_next if dh_steps is None else dh_next + dh_steps[t]
        act = trace.gates[t]
        f, i, o, g = act[:h], act[h:2 * h], act[2 * h:3 * h], act[3 * h:]
        c_prev = trace.c[t - 1] if t > 0 else trace.c0
        dc = ops.tanh_grad(trace.tanh_c[t], dh * o) + dc_next
        dz = dz_all[t]
        dz[:3 * h] = ops.sigmoid_grad(act[:3 * h], np.concatenate(
            (dc * c_prev, dc * g, dh * trace.tanh_c[t])))
        dz[3 * h:] = ops.tanh_grad(g, dc * i)
        dh_next = params.u.T @ dz
        dc_next = dc * f
    h_prevs = np.concatenate((trace.h0[None, :], trace.h[:-1]))
    grads = LstmParams((dz_all.T @ trace.xs).astype(dz_all.dtype, copy=False),
                       dz_all.T @ h_prevs, dz_all.sum(axis=0))
    return grads, dh_next, dc_next
