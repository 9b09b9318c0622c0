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
The sigmoid gates are computed as 0.5 tanh(z / 2) + 0.5, which saturates
instead of overflowing and stays within one machine epsilon of
1 / (1 + e^-z).

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

Both step loops are bound by numpy's cost per call, not by arithmetic:
a row holds 32-512 elements at the model's sizes.  So every call in
them is a ufunc or `np.dot` with array operands and a positional output
buffer, allocated once per sequence.  There is no binary operator, which
allocates its result, no in-place operator, which is no faster than the
ufunc call with an array operand and twice its cost with a Python-float
one, no Python-float operand, no `np.concatenate` and no call into
another function of the package (`tests/test_dispatch_guard.py` checks
the loop bodies).  On a 2-core Xeon with numpy 2.4.6, OpenBLAS and
Python 3.11, float32 rows of h = 32 and U of (4h, h), a call costs

    ufunc(a, b, out), or x += y                     0.31-0.34 us
    a * b, which allocates                          0.37-0.68 us
    ufunc(a, 0.5, out), a * 0.5 or x *= 0.5         0.64-0.74 us
    u @ h, against np.dot(u, h, out)                1.16-1.23 us, 0.79-0.81 us
    np.concatenate of four rows                     0.96-0.99 us

The arithmetic is the same as that of the plain expressions, operation
for operation and in the same order: 0.5 as an array of the activation
dtype is the value a Python 0.5 operand takes, a broadcast multiply of
coef_t's (4, h) view by dc and then of its o block by dh forms
coef_t * (dc, dc, dh, dc) element for element, and np.dot(U, h) and
np.dot(dz, U) give the bits of U @ h and U.T @ dz (with numpy 2.4 and
OpenBLAS, over 200 draws each at h = 4, 32 and 128 in float32 and
float64).  `tests/test_lstm.py` holds both loops to those expressions
bit for bit.

`LstmParams.tensors()` yields the per-gate row blocks (Wf, Uf, bf, Wi,
...) as views of the packed arrays, so whatever writes through them
(checkpoint loading, finite differences) writes into the packed weights.
The optimizer steps over the packed arrays themselves (`arrays()`).
"""

import math
from dataclasses import dataclass
from itertools import repeat

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
    activations f, i, o, g side by side in `gates` (T, 4h), tanh(c_t) in
    `tanh_c` (T, h), and the states in `hs` and `cs` (T + 1, h), whose row 0
    is the initial state and row t + 1 the state after step t, so that
    backprop reads every h_{t-1} and c_{t-1} as one view."""

    xs: np.ndarray
    gates: np.ndarray
    hs: np.ndarray
    cs: np.ndarray
    tanh_c: np.ndarray

    @property
    def h(self) -> np.ndarray:
        return self.hs[1:]


def _glorot(rng: np.random.Generator | None, rows: int, cols: int,
            dtype) -> np.ndarray:
    """Glorot-uniform weights; zeros, with nothing drawn, when rng is None."""
    if rng is None:
        return np.zeros((rows, cols), dtype=dtype)
    lim = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-lim, lim, size=(rows, cols)).astype(dtype)


def init_lstm_params(input_size: int, hidden_size: int, rng: np.random.Generator,
                     dtype=np.float64) -> LstmParams:
    """Glorot-uniform weights, zero biases except the forget bias, 1.

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
    b[:h] = 1.0
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
    hs = np.zeros((steps + 1, h), dtype=dtype)
    cs = np.zeros((steps + 1, h), dtype=dtype)
    if init is not None:
        if init.h.shape != (h,) or init.c.shape != (h,):
            raise ShapeError("run_lstm state", (h,), init.h.shape, init.c.shape)
        hs[0] = init.h
        cs[0] = init.c
    gates = np.empty((steps, 4 * h), dtype=dtype)
    tanh_cs = np.empty((steps, h), dtype=dtype)
    u = params.u
    dot, add, mul, tanh = np.dot, np.add, np.multiply, np.tanh
    # One step's pre-activations; writing them into the gate row instead
    # and applying the nonlinearities there in place measured slower.
    z = np.empty(4 * h, dtype=dtype)
    z_sig, z_g = z[:3 * h], z[3 * h:]
    half = np.full(3 * h, 0.5, dtype=dtype)
    ig = np.empty(h, dtype=dtype)
    h_prev, c_prev = hs[0], cs[0]
    for sig, f, i, o, g, c, tanh_c, h_t, zx_t in zip(
            gates[:, :3 * h], gates[:, :h], gates[:, h:2 * h],
            gates[:, 2 * h:3 * h], gates[:, 3 * h:], cs[1:], tanh_cs, hs[1:], zx):
        dot(u, h_prev, z)
        add(zx_t, z, z)
        # f, i, o = sigmoid(z) = 0.5 tanh(z / 2) + 0.5
        mul(z_sig, half, sig)
        tanh(sig, sig)
        mul(sig, half, sig)
        add(sig, half, sig)
        tanh(z_g, g)
        mul(f, c_prev, c)
        mul(i, g, ig)
        add(c, ig, c)
        tanh(c, tanh_c)
        mul(o, tanh_c, h_t)
        h_prev, c_prev = h_t, c
    return LstmState(h_prev, c_prev), LstmTrace(xs, gates, hs, cs, tanh_cs)


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
    steps, h = trace.tanh_c.shape
    gates = trace.gates
    if gates.shape != (steps, 4 * h) or params.hidden_size != h:
        raise ShapeError("lstm_sequence_backward", (steps, 4 * h),
                         gates.shape, (params.hidden_size,))
    if dh_steps is not None and dh_steps.shape != (steps, h):
        raise ShapeError("lstm_sequence_backward dh_steps", (steps, h), dh_steps.shape)
    # Every local derivative for all T at once (module docstring), so that
    # the loop runs only the dh/dc recurrence.
    local = np.concatenate((trace.cs[:-1], gates[:, 3 * h:], trace.tanh_c), axis=1)
    sig_coef = ops.sigmoid_grad(gates[:, :3 * h], local)
    tanh_coef = ops.tanh_grad(local[:, h:], gates[:, h:3 * h])
    coef = np.concatenate((sig_coef, tanh_coef[:, :h]), axis=1)
    dtype = gates.dtype
    # Row t holds step t's packed dz; dW, dU and db come from the rows of
    # all steps (and all videos of a batch) at once.
    dz_all = np.empty((steps, 4 * h), dtype=dtype)
    dh_next = np.zeros(h, dtype=dtype)
    dc_next = np.zeros(h, dtype=dtype)
    if dh_final is not None:
        np.add(dh_next, dh_final, out=dh_next)
    if dc_final is not None:
        np.add(dc_next, dc_final, out=dc_next)
    dh = dh_next if dh_steps is None else np.empty(h, dtype=dtype)
    dc = np.empty(h, dtype=dtype)
    u = params.u
    dot, add, mul = np.dot, np.add, np.multiply
    outside = repeat(None) if dh_steps is None else dh_steps[::-1]
    for dh_t, coef4, coef_o, k, f, dz4, dz_o, dz in zip(
            outside, coef.reshape(steps, 4, h)[::-1], coef[::-1, 2 * h:3 * h],
            tanh_coef[::-1, h:], gates[::-1, :h], dz_all.reshape(steps, 4, h)[::-1],
            dz_all[::-1, 2 * h:3 * h], dz_all[::-1]):
        if dh_t is not None:
            add(dh_next, dh_t, dh)
        mul(dh, k, dc)
        add(dc, dc_next, dc)
        # dz = coef * (dc, dc, dh, dc): all four blocks by dc, then o by dh
        mul(coef4, dc, dz4)
        mul(coef_o, dh, dz_o)
        dot(dz, u, dh_next)
        mul(dc, f, dc_next)
    grads = LstmParams(Rows(dz_all, trace.xs), Rows(dz_all, trace.hs[:-1]),
                       Rows(dz_all))
    return grads, dh_next, dc_next
