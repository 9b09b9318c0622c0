"""Parameter bundles as trees of named arrays, and their gradients.

A bundle is a dataclass whose fields are arrays or nested bundles.  The
order in which the fields are declared is the canonical tensor order that
the gradient checker and the checkpoint format share (`tensors`), and the
order of the arrays that the optimizer names and sums into its gradient
norm (`arrays`).

Backward passes return gradients in factored form: a bundle of the
parameters' structure whose every leaf is `Rows`, the gradient rows of a
layer together with the inputs they multiply.  Every weight in the model
is applied to rows of inputs (y = x W^T + b), so its gradient over any
number of videos is one product of the rows stacked over all of them, and
a bias gradient one column sum; `reduce_rows` forms those dense arrays.

`pack` moves the stored arrays of bundles into one flat buffer, and
`flat_views` lays out a second buffer the same way, so that an optimizer
can step over all parameters at once (`optim`).
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
        """(name, array) pairs of the arrays that the optimizer names in its
        errors and sums into its gradient norm, in canonical order: the
        arrays the bundle stores, unless it says otherwise.  A gate-packed
        LSTM yields its packed arrays here and per-gate views in `tensors`;
        a track-packed fusion block yields per-track views in both."""
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
    bias (x None).  A packed array's rows carry its leading axes in front,
    e.g. (2, n, out) for a track-packed fusion weight."""

    g: np.ndarray
    x: np.ndarray | None = None


def reduce_rows(bundles: list, scale: float = 1.0, out: ParamTree | None = None):
    """Dense gradient of the sum over factored bundles of one structure,
    times `scale`: for each stored array, one matrix product (or one column
    sum) over the rows of all bundles stacked in list order.  With `out`,
    a bundle of that structure, the gradients are written into its arrays,
    which the returned bundle holds."""
    def reduce(dest, *leaves):
        g = np.concatenate([leaf.g for leaf in leaves], axis=-2)
        if leaves[0].x is None:
            dest = g.sum(axis=-2, out=dest)
        else:
            x = np.concatenate([leaf.x for leaf in leaves], axis=-2)
            dest = np.matmul(g.swapaxes(-1, -2), x,
                             out=dest).astype(g.dtype, copy=False)
        dest *= scale
        return dest

    if out is None:
        out = bundles[0].map(lambda leaf: None)
    return out.map(reduce, *bundles)


def _slots(buf: np.ndarray):
    """A function that hands out consecutive views of buf, each shaped like
    the array it is given."""
    offset = 0

    def take(arr):
        nonlocal offset
        view = buf[offset:offset + arr.size].reshape(arr.shape)
        offset += arr.size
        return view

    return take


def _stored(bundle: ParamTree):
    """(owner bundle, field name) of every stored array, in field order."""
    for field in dataclasses.fields(bundle):
        value = getattr(bundle, field.name)
        if isinstance(value, ParamTree):
            yield from _stored(value)
        else:
            yield bundle, field.name


def pack(bundles: list) -> np.ndarray:
    """Move every stored array of the bundles, in field order, into one new
    flat buffer and rebind each field to its view there.  The arrays move
    one at a time and each original is dropped as it goes, so the values
    are never held twice.  All arrays share one dtype.  Returns the
    buffer."""
    fields = [slot for bundle in bundles for slot in _stored(bundle)]
    size = sum(getattr(owner, name).size for owner, name in fields)
    buf = np.empty(size, dtype=getattr(*fields[0]).dtype)
    take = _slots(buf)
    for owner, name in fields:
        view = take(getattr(owner, name))
        view[...] = getattr(owner, name)
        setattr(owner, name, view)
    return buf


def flat_views(buf: np.ndarray, bundles: list) -> list:
    """Bundles of the given structures whose arrays are views of buf, laid
    out as `pack` lays out the bundles' arrays."""
    take = _slots(buf)
    return [bundle.map(take) for bundle in bundles]


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
