"""Seconds on a reference core, measured on a shared one.

The cores this benchmark runs on are shared with other virtual machines.
Their speed drifts by up to 2x within a minute, and the guest sees none of
it: no steal time is reported, and CPU time tracks wall time.  A fixed
loop of float32 LSTM steps through the workload's LSTM shapes, written
apart from avloc, takes ref_s run back to back on an idle core.  A timer
signal runs that loop every INTERVAL_S seconds while the benchmark works;
the loop's mean time over a phase, against ref_s, says how slow the
machine was during that phase.  A phase's time is its wall time minus the
probes' time, scaled by ref_s over that mean: the phase's seconds on the
idle reference core.
"""

import math
import signal
import time
import types

import numpy as np

INTERVAL_S = 0.025
# Probes that a phase too short to hold one falls back on.  Only probes
# taken within a phase are used otherwise: a probe's time depends on the
# cache state the interrupted work leaves, so probes from another phase
# would bias its estimate.
RECENT = 8


class SpeedProbe:
    def __init__(self, shapes: list, steps: int, ref_s: float):
        """shapes: the (input, hidden) size of each LSTM of the model, so
        that the probe's weights fill the caches as the program's do."""
        rng = np.random.default_rng(0)
        self.layers = []
        for d, h in shapes:
            # Buffers allocated once, so that a probe firing at a random
            # moment leaves the program's heap, and so its peak memory, as
            # it was.
            self.layers.append(types.SimpleNamespace(
                w=(rng.standard_normal((4, h, d)) / math.sqrt(d)).astype(np.float32),
                u=(rng.standard_normal((4, h, h)) / math.sqrt(h)).astype(np.float32),
                xs=rng.standard_normal((steps, d)).astype(np.float32),
                z=np.zeros((4, h), np.float32), h=np.zeros(h, np.float32),
                c=np.zeros(h, np.float32), outer=np.zeros((h, d), np.float32),
                grad=np.zeros((h, d), np.float32)))
        self.ref_s = ref_s
        self.spent = 0.0       # seconds spent in probes so far
        self.durations = []    # each probe's seconds, in order
        self._previous = None
        self._busy = False

    def loop(self) -> None:
        """The reference work: LSTM steps with an outer-product gradient,
        through every layer."""
        for layer in self.layers:
            z, h, c = layer.z, layer.h, layer.c
            h[:] = 0.0
            c[:] = 0.0
            layer.grad[:] = 0.0
            for x in layer.xs:
                for g in range(4):
                    np.matmul(layer.w[g], x, out=z[g])
                    z[g] += layer.u[g] @ h
                gates = 1.0 / (1.0 + np.exp(-z[:3]))
                c *= gates[0]
                c += gates[1] * np.tanh(z[3])
                np.multiply(gates[2], np.tanh(c), out=h)
                for g in range(4):
                    np.multiply.outer(z[g], x, out=layer.outer)
                    layer.grad += layer.outer

    def _probe(self, signum, frame):
        if self._busy:  # a probe held up past the next tick: skip that tick
            return
        self._busy = True
        start = time.perf_counter()
        self.loop()
        took = time.perf_counter() - start
        self.durations.append(took)
        self.spent += took
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def clock(self) -> float:
        """perf_counter minus the time spent in probes."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if self.spent == spent:
                return now - spent

    def mark(self):
        return self.clock(), len(self.durations)

    def since(self, mark) -> tuple:
        """(wall seconds, reference-core seconds) since mark, probes
        excluded."""
        start, first = mark
        wall = self.clock() - start
        probes = self.durations[first:] or self.durations[-RECENT:]
        return wall, wall * self.ref_s * len(probes) / sum(probes)
