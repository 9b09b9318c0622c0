"""Parameter bundles as trees of named arrays.

A bundle is a dataclass whose fields are arrays or nested bundles.  The
order in which the fields are declared is the canonical tensor order that
the optimizer, the gradient checker and the checkpoint format share.
"""

import dataclasses


class ParamTree:
    """Base of the dataclass parameter bundles."""

    def tensors(self, prefix: str = ""):
        """(name, array) pairs in canonical order; a nested bundle's names
        carry its field name and a dot, e.g. "fusion.g_h.w1"."""
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, ParamTree):
                yield from value.tensors(prefix + field.name + ".")
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
