"""How slow the shared host runs at a moment, from fixed reference work.

The measuring host shares its cores with other machines.  Their load
slows everything that runs here, by up to 75%, and the slowdown drifts
over seconds and lasts for minutes, so a run's raw latencies say as
much about the neighbours as about dycktile.  A run therefore times
reference() between operations, and divides each operation's latency
by the slowdown around it: reference()'s time then over NOMINAL_S.

reference() belongs to the benchmark, not to dycktile, so a change to
the program changes the operations' times and not the slowdown.  It
runs with the garbage collector off, so objects the program leaves
alive do not make it slower.
"""

from __future__ import annotations

import gc
import time

# reference()'s fastest time on the measuring host (x86_64, 2 CPUs,
# Python 3.11.7).  It only scales every adjusted time alike: an
# adjusted time is the time the operation takes when the host runs as
# fast as it did then.
NOMINAL_S = 0.0005

# least operation time between two samples within a pass
EVERY_S = 0.02


def reference() -> int:
    """Fixed pure-Python work of the kinds dycktile's operations do:
    integer loops, list convolution, tuple keys in a dict."""
    s = 0
    for i in range(3000):
        s += i * i % 7
    a = list(range(1, 30))
    b = list(range(1, 25))
    out = [0] * (len(a) + len(b) - 1)
    for _ in range(2):
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
    counts: dict = {}
    for i in range(600):
        k = (i % 17, i % 5, "ab"[i % 2])
        counts[k] = counts.get(k, 0) + 1
    return s + sum(out) + len(sorted(counts.items()))


def slowdown() -> float:
    """reference()'s time now over NOMINAL_S."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference()
        seconds = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    return seconds / NOMINAL_S


class Sampler:
    """Samples slowdown() between the operations of a pass.

    It samples before the first operation, then after an operation once
    EVERY_S of operation time has passed since the last sample, and
    after the last operation.  Each operation's slowdown is the mean of
    the samples just before and just after it.
    """

    def __init__(self):
        self.at = [0]  # the operation index each sample was taken before
        self.samples = [slowdown()]
        self.since = 0.0

    def after(self, index: int, seconds: float) -> None:
        self.since += seconds
        if self.since >= EVERY_S:
            self.at.append(index + 1)
            self.samples.append(slowdown())
            self.since = 0.0

    def per_op(self, n: int) -> list[float]:
        """The slowdown of each of the pass's n operations."""
        if self.at[-1] != n:
            self.at.append(n)
            self.samples.append(slowdown())
        out = []
        for j in range(len(self.at) - 1):
            mean = (self.samples[j] + self.samples[j + 1]) / 2
            out.extend([mean] * (self.at[j + 1] - self.at[j]))
        return out
