"""Adam with bias correction and optional global-norm gradient clipping.

Parameters and gradients travel as {name: array} dicts so the same
optimizer covers the model bundle and any auxiliary heads.  Updates are
applied in place, in dict insertion order, so runs are deterministic.
A step allocates no whole-array temporaries: every intermediate goes into
two scratch buffers that the state keeps, sized to the largest parameter.
"""

import math
from dataclasses import dataclass, field

import numpy as np


class NanGradError(RuntimeError):
    """A gradient (or the loss feeding it) went non-finite."""

    def __init__(self, tensor: str):
        super().__init__("non-finite gradient in tensor %r" % tensor)
        self.tensor = tensor


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    # dtype -> two flat scratch buffers, each as large as the largest
    # parameter of that dtype
    scratch: dict = field(default_factory=dict, repr=False)

    @classmethod
    def for_params(cls, params: dict) -> "AdamState":
        state = cls()
        largest = {}
        for name, arr in params.items():
            state.m[name] = np.zeros_like(arr)
            state.v[name] = np.zeros_like(arr)
            largest[arr.dtype] = max(largest.get(arr.dtype, 0), arr.size)
        state.scratch = {dtype: (np.empty(size, dtype), np.empty(size, dtype))
                         for dtype, size in largest.items()}
        return state


def clip_grads(grads: dict, clip_norm: float) -> float:
    """Scale all gradients in place so their global norm is <= clip_norm.

    Returns the pre-clip norm.
    """
    total = 0.0
    for arr in grads.values():
        total += float(np.dot(arr.ravel(), arr.ravel()))
    norm = math.sqrt(total)
    if norm > clip_norm:
        scale = clip_norm / norm
        for arr in grads.values():
            arr *= scale
    return norm


def adam_step(params: dict, grads: dict, state: AdamState, lr: float,
              clip_norm: float | None) -> None:
    """One Adam update, in place on the parameter arrays; the gradients are
    first clipped to global norm clip_norm unless it is None."""
    if params.keys() != grads.keys():
        raise KeyError("parameter/gradient name mismatch")
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NanGradError(name)
    if clip_norm is not None:
        clip_grads(grads, clip_norm)
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        a, b = (buf[:p.size].reshape(p.shape) for buf in state.scratch[p.dtype])
        # p -= lr (m / bc1) / (sqrt(v / bc2) + eps), operation for operation
        # in that order, so the bits are those of the expression.
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=a)
        m += a
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=a)
        a *= g
        v += a
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        a += EPS
        np.divide(m, bc1, out=b)
        b *= lr
        b /= a
        p -= b
