"""Precisions, the shape error, and the backward kernels of the model's
nonlinearities: sigmoid and tanh given their cached outputs, and softmax
with its backward.

Two precisions are supported: standard (float32) for training and
checking (float64) for finite-difference gradient verification.  No
function here mutates its inputs.  The sigmoid itself has no function
here: `lstm.run_lstm` computes it inside its step loop, as direct ufunc
calls into preallocated rows.
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


def sigmoid_grad(out: np.ndarray, gout: np.ndarray) -> np.ndarray:
    """Backward of sigmoid given its cached output: gout * s * (1 - s)."""
    if out.shape != gout.shape:
        raise ShapeError("sigmoid_grad", out.shape, gout.shape)
    return gout * out * (1.0 - out)


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

