"""Spans and call counts around avloc's public functions.

A Tracer replaces module attributes in this process only: every public
function defined in a span module is wrapped so that each call records a
span [name, start, end, parent index, ops calls at start, ops calls at
end]; every public function of `ops` (the per-step kernels) only
counts its calls, because a span per kernel call would cost more than the
kernel.  Names bound with `from module import name` are replaced too, by
identity, so a call is traced whichever module it goes through.  Leaving
the `with` block restores every original attribute.  Span times come
from the given clock.
"""

import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "avloc"
SPAN_MODULES = ("data", "checkpoint", "trainer", "model", "fusion", "lstm",
                "optim")
COUNT_MODULES = ("ops",)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.calls = defaultdict(int)
        self._stack = []
        self._ops = [0]
        self._restore = []

    # -- installing ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, calls, ops = self.spans, self._stack, self.calls, self._ops
        clock = self.clock

        def traced(*args, **kwargs):
            calls[name] += 1
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, ops[0], 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                record[5] = ops[0]
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name, fn):
        calls, ops = self.calls, self._ops

        def counted(*args, **kwargs):
            calls[name] += 1
            ops[0] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def __enter__(self):
        wrappers = {}
        for short in SPAN_MODULES + COUNT_MODULES:
            module = sys.modules["%s.%s" % (PACKAGE, short)]
            make = self._span_wrapper if short in SPAN_MODULES else self._count_wrapper
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[value] = make("%s.%s" % (short, attr), value)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()
        return False

    # -- reading -------------------------------------------------------------

    def total(self, *names) -> float:
        """Seconds inside spans of these names, counting a span nested in
        another of the same set once."""
        wanted = set(names)
        inside = set()
        seconds = 0.0
        for index, (name, start, end, parent, _, _) in enumerate(self.spans):
            if name in wanted:
                if parent not in inside:
                    seconds += end - start
                inside.add(index)
            elif parent in inside:
                inside.add(index)
        return seconds

    def self_time(self, name) -> float:
        """Seconds inside spans of this name minus their child spans."""
        seconds = 0.0
        chosen = set()
        for index, (span_name, start, end, parent, _, _) in enumerate(self.spans):
            if span_name == name:
                chosen.add(index)
                seconds += end - start
            if parent in chosen:
                seconds -= end - start
        return seconds

    def ops_within(self, name) -> int:
        """Calls into ops made inside spans of this name."""
        return sum(end_ops - start_ops
                   for span_name, _, _, _, start_ops, end_ops in self.spans
                   if span_name == name)

    def export(self, label: str) -> dict:
        """Every span and count as plain JSON data; span names index into
        `names` and times are seconds from the first span's start."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        return {"label": label, "names": names, "calls": dict(self.calls),
                "fields": ["name", "start_s", "end_s", "parent", "ops_start",
                           "ops_end"],
                "spans": [[index[n], round(s - origin, 7), round(e - origin, 7),
                           p, o0, o1] for n, s, e, p, o0, o1 in self.spans]}
