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
(4h,), with the row blocks of h in gate order f, i, o, c.  The input
projection X W^T + b does not recur, so `project` computes it for rows
stacked over any number of sequences (a trainer's minibatch, an
evaluation chunk) in one matrix product, and `run_lstm` takes a
sequence's rows of it.  A step makes one U h_{t-1} matvec for all gates
and writes the gates, c_t, tanh(c_t) and h_t straight into the trace rows.

Backprop computes every local derivative before its loop, for all T at
once: with c_{t-1}, g_t and tanh(c_t) from the trace,

    coef_t = (f(1-f) c_{t-1}, i(1-i) g, o(1-o) tanh(c_t), i(1-g^2))   (4h,)
    k_t    = o_t (1 - tanh(c_t)^2)                                      (h,)

so the loop runs only the dh/dc recurrence:

    dh   = dh_next + (outside gradient on h_t)
    dc   = dh k_t + dc_next
    dz_t = coef_t * (dc, dc, dh, dc)
    dh_next = U^T dz_t,   dc_next = dc f_t

Each dz_t is a row of dZ (T, 4h).  Backprop forms no weight gradient: it
returns dZ with the rows it multiplies, X for dW and [h_0; ...; h_{T-1}]
for dU (`tree.Rows`), so that `tree.reduce_rows` forms dW = dZ^T X,
dU = dZ^T H_prev and db, the column sums of dZ, with one product each
over the rows of a whole minibatch.  Those sums run in another order than
per step and per gate, so results agree with the per-gate algorithm to
rounding, not bit for bit.

`LstmParams.tensors()` yields the per-gate row blocks (Wf, Uf, bf, Wi,
...) as views of the packed arrays, so whatever writes through them
(checkpoint loading, finite differences) writes into the packed weights.
The optimizer steps over the packed arrays themselves (`arrays()`).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import ops
from .ops import ShapeError
from .tree import ParamTree, Rows

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


def project(params: LstmParams, xs: np.ndarray) -> np.ndarray:
    """The input projection xs W^T + b, (N, 4h), of N input rows (N, d),
    stacked over any number of sequences."""
    if xs.ndim != 2 or xs.shape[1] != params.input_size:
        raise ShapeError("lstm inputs", ("N", params.input_size), xs.shape)
    return xs @ params.w.T + params.b


def run_lstm(params: LstmParams, xs: np.ndarray,
             init: LstmState | None = None, zx: np.ndarray | None = None):
    """Unroll over xs of shape (T, d) from init, or from the all-zero state.
    zx, when given, is the sequence's (T, 4h) rows of `project` over a
    stack of sequences; without it the unroll projects xs itself.  zx is
    only read.  Returns (final state, trace); the final state's arrays are
    the trace's last rows of h and c."""
    h = params.hidden_size
    if xs.ndim != 2 or xs.shape[1] != params.input_size:
        raise ShapeError("run_lstm inputs", ("T", params.input_size), xs.shape)
    steps = xs.shape[0]
    if steps == 0:
        raise ValueError("run_lstm: empty sequence")
    if zx is None:
        zx = project(params, xs)
    elif zx.shape != (steps, 4 * h):
        raise ShapeError("run_lstm projection", (steps, 4 * h), zx.shape)
    dtype = params.w.dtype  # parameter precision governs the activations
    if init is None:
        init = LstmState(np.zeros(h, dtype=dtype), np.zeros(h, dtype=dtype))
    if init.h.shape != (h,) or init.c.shape != (h,):
        raise ShapeError("run_lstm state", (h,), init.h.shape, init.c.shape)
    trace = LstmTrace(xs, init.h, init.c, np.empty((steps, 4 * h), dtype=dtype),
                      *(np.empty((steps, h), dtype=dtype) for _ in range(3)))
    u = params.u
    # One step's pre-activations; writing them into the gate row instead
    # and applying the nonlinearities there in place measured slower.
    z = np.empty(4 * h, dtype=dtype)
    z_sig, z_tanh = z[:3 * h], z[3 * h:]
    h_prev, c_prev = init.h, init.c
    for act, c_t, tanh_c_t, h_t, zx_t in zip(trace.gates, trace.c, trace.tanh_c,
                                             trace.h, zx):
        np.add(zx_t, u @ h_prev, out=z)
        ops.sigmoid(z_sig, out=act[:3 * h])
        np.tanh(z_tanh, out=act[3 * h:])
        np.multiply(act[:h], c_prev, out=c_t)
        c_t += act[h:2 * h] * act[3 * h:]
        np.tanh(c_t, out=tanh_c_t)
        np.multiply(act[2 * h:3 * h], tanh_c_t, out=h_t)
        h_prev, c_prev = h_t, c_t
    return LstmState(h_prev, c_prev), trace


def lstm_sequence_backward(params: LstmParams, trace: LstmTrace,
                           dh_steps: np.ndarray | None = None,
                           dh_final: np.ndarray | None = None,
                           dc_final: np.ndarray | None = None):
    """BPTT through a recorded unroll.

    dh_steps: optional (T, h) gradients flowing into each h_t from outside
    (e.g. a per-step output layer).  dh_final / dc_final: extra gradients on
    the last state.  Returns (param grads in factored form, an LstmParams
    of `Rows`; dh0, dc0), the last two the gradients on the initial state.
    """
    steps, h = trace.h.shape
    if trace.gates.shape != (steps, 4 * h) or params.hidden_size != h:
        raise ShapeError("lstm_sequence_backward", (steps, 4 * h),
                         trace.gates.shape, (params.hidden_size,))
    if dh_steps is not None and dh_steps.shape != (steps, h):
        raise ShapeError("lstm_sequence_backward dh_steps", (steps, h), dh_steps.shape)
    # Every local derivative for all T at once (module docstring), so that
    # the loop runs only the dh/dc recurrence.
    gates = trace.gates
    c_prevs = np.concatenate((trace.c0[None, :], trace.c[:-1]))
    local = np.concatenate((c_prevs, gates[:, 3 * h:], trace.tanh_c), axis=1)
    sig_coef = ops.sigmoid_grad(gates[:, :3 * h], local)
    tanh_coef = ops.tanh_grad(local[:, h:], gates[:, h:3 * h])
    coef = np.concatenate((sig_coef, tanh_coef[:, :h]), axis=1)
    k = tanh_coef[:, h:]
    f = gates[:, :h]
    u_t = params.u.T
    # Row t holds step t's packed dz; dW, dU and db come from the rows of
    # all steps (and all videos of a batch) at once.
    dz_all = np.empty((steps, 4 * h), dtype=gates.dtype)
    dh_next = np.zeros(h, dtype=trace.h.dtype)
    dc_next = np.zeros(h, dtype=trace.h.dtype)
    if dh_final is not None:
        dh_next = dh_next + dh_final
    if dc_final is not None:
        dc_next = dc_next + dc_final
    for t in range(steps - 1, -1, -1):
        dh = dh_next if dh_steps is None else dh_next + dh_steps[t]
        dc = dh * k[t] + dc_next
        np.multiply(coef[t], np.concatenate((dc, dc, dh, dc)), out=dz_all[t])
        dh_next = u_t @ dz_all[t]
        dc_next = dc * f[t]
    h_prevs = np.concatenate((trace.h0[None, :], trace.h[:-1]))
    grads = LstmParams(Rows(dz_all, trace.xs), Rows(dz_all, h_prevs), Rows(dz_all))
    return grads, dh_next, dc_next
