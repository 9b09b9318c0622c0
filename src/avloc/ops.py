"""Dense vector/matrix kernels with paired forward and backward ops.

A "vector" is a 1-D numpy array, a "matrix" a 2-D row-major numpy array.
Two precisions are supported: standard (float32) for training and
checking (float64) for finite-difference gradient verification.  No
function here mutates its inputs; `sigmoid` can write its result into a
given output array.
"""

import enum

import numpy as np


class Precision(enum.Enum):
    STANDARD = "standard"
    CHECKING = "checking"

    @property
    def dtype(self) -> np.dtype:
        if self is Precision.STANDARD:
            return np.dtype(np.float32)
        return np.dtype(np.float64)


class ShapeError(ValueError):
    """Dimension mismatch between operands; carries the offending shapes."""

    def __init__(self, op: str, *shapes):
        super().__init__(
            "%s: incompatible shapes %s" % (op, " vs ".join(str(s) for s in shapes))
        )
        self.op = op
        self.shapes = shapes


def matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix-vector product m @ x for an (r, c) matrix and a length-c vector."""
    if m.ndim != 2 or x.ndim != 1 or m.shape[1] != x.shape[0]:
        raise ShapeError("matvec", m.shape, x.shape)
    return m @ x


def matvec_grad(m: np.ndarray, x: np.ndarray, gout: np.ndarray):
    """Backward of matvec: returns (grad wrt m, grad wrt x)."""
    if gout.ndim != 1 or gout.shape[0] != m.shape[0]:
        raise ShapeError("matvec_grad", m.shape, gout.shape)
    return np.outer(gout, x), m.T @ gout


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function as 0.5 tanh(x / 2) + 0.5, written into `out` when
    given.  tanh saturates instead of overflowing, so no input needs a
    branch: +-inf give exactly 1 and 0, NaN stays NaN, and no
    floating-point warning is raised.  The result is within one machine
    epsilon of the piecewise 1 / (1 + e^-x), e^x / (1 + e^x) form."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def sigmoid_grad(out: np.ndarray, gout: np.ndarray) -> np.ndarray:
    """Backward of sigmoid given its cached output: gout * s * (1 - s)."""
    if out.shape != gout.shape:
        raise ShapeError("sigmoid_grad", out.shape, gout.shape)
    return gout * out * (1.0 - out)


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def tanh_grad(out: np.ndarray, gout: np.ndarray) -> np.ndarray:
    """Backward of tanh given its cached output: gout * (1 - t^2)."""
    if out.shape != gout.shape:
        raise ShapeError("tanh_grad", out.shape, gout.shape)
    return gout * (1.0 - out * out)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax over the last axis, so each row of a (T, K)
    array gets the same bits as a softmax of that row alone."""
    if logits.ndim == 0 or logits.shape[-1] == 0:
        raise ValueError("softmax: the last axis must be non-empty, got shape %s"
                         % (logits.shape,))
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_grad(out: np.ndarray, gout: np.ndarray) -> np.ndarray:
    """Backward of softmax given its cached output: p * (g - <g, p>)."""
    if out.shape != gout.shape:
        raise ShapeError("softmax_grad", out.shape, gout.shape)
    return out * (gout - np.dot(gout, out))

