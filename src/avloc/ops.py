"""Dense vector/matrix kernels with paired forward and backward ops.

A "vector" is a 1-D numpy array, a "matrix" a 2-D row-major numpy array.
Two precisions are supported: standard (float32) for training and
checking (float64) for finite-difference gradient verification.  Every
function here is pure; nothing mutates its inputs.
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


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, evaluated piecewise so exp never overflows:
    1 / (1 + e^-x) where x >= 0, e^x / (1 + e^x) elsewhere.  min(x, -x)
    is -|x| that keeps a NaN's sign bit."""
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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

