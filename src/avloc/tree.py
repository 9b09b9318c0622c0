"""Parameter bundles as trees of named arrays, and their gradients.

A bundle is a dataclass whose fields are arrays or nested bundles.  The
order in which the fields are declared is the canonical tensor order that
the gradient checker and the checkpoint format share (`tensors`), and the
order in which the optimizer walks the stored arrays (`arrays`).

Backward passes return gradients in factored form: a bundle of the
parameters' structure whose every leaf is `Rows`, the gradient rows of a
layer together with the inputs they multiply.  Every weight in the model
is applied to rows of inputs (y = x W^T + b), so its gradient over any
number of videos is one product of the rows stacked over all of them, and
a bias gradient one column sum; `reduce_rows` forms those dense arrays.
"""

import dataclasses

import numpy as np


class ParamTree:
    """Base of the dataclass parameter bundles."""

    def tensors(self, prefix: str = ""):
        """(name, array) pairs in canonical order; a nested bundle's names
        carry its field name and a dot, e.g. "fusion.g_h.w1"."""
        return self._walk("tensors", prefix)

    def arrays(self, prefix: str = ""):
        """(name, array) pairs of the arrays the bundle stores, named and
        ordered as `tensors` names and orders its fields.  The same as
        `tensors` unless a bundle yields views of its arrays there, as a
        gate-packed LSTM does."""
        return self._walk("arrays", prefix)

    def _walk(self, method: str, prefix: str):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, ParamTree):
                yield from getattr(value, method)(prefix + field.name + ".")
            else:
                yield prefix + field.name, value

    def map(self, fn, *others):
        """A bundle of the same structure whose every array is fn(array,
        *the arrays at the same place in others)."""
        fields = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            rest = [getattr(other, field.name) for other in others]
            fields[field.name] = (value.map(fn, *rest) if isinstance(value, ParamTree)
                                  else fn(value, *rest))
        return type(self)(**fields)


@dataclasses.dataclass
class Rows:
    """The gradient of one weight or bias in factored form: rows g (n, out)
    of output gradients and, for a weight, the inputs x (n, in) they met.
    The dense gradient is g^T x for a weight and the column sums of g for a
    bias (x None)."""

    g: np.ndarray
    x: np.ndarray | None = None

    @classmethod
    def empty(cls, param: np.ndarray) -> "Rows":
        """No rows for `param`: its dense gradient is zero."""
        g = np.empty((0, param.shape[0]), dtype=param.dtype)
        return cls(g, None if param.ndim == 1
                   else np.empty((0, param.shape[1]), dtype=param.dtype))


def reduce_rows(bundles: list, scale: float = 1.0):
    """Dense gradient of the sum over factored bundles of one structure,
    times `scale`: for each stored array, one matrix product (or one column
    sum) over the rows of all bundles stacked in list order."""
    def reduce(*leaves):
        g = np.concatenate([leaf.g for leaf in leaves])
        if leaves[0].x is None:
            out = g.sum(axis=0)
        else:
            x = np.concatenate([leaf.x for leaf in leaves])
            out = (g.T @ x).astype(g.dtype, copy=False)
        out *= scale
        return out

    return bundles[0].map(reduce, *bundles[1:])


@dataclasses.dataclass
class RowGrads:
    """One video's gradient bundle in factored form (`bundle`, with `Rows`
    leaves).  `tensors()` and `arrays()` give its dense gradient, formed by
    `reduce_rows` as for a batch of one."""

    bundle: ParamTree

    def tensors(self, prefix: str = ""):
        return reduce_rows([self.bundle]).tensors(prefix)

    def arrays(self, prefix: str = ""):
        return reduce_rows([self.bundle]).arrays(prefix)
