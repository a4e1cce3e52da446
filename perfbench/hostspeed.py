"""Host-speed probe: fixed reference kernels timed alongside the workload.

On a shared host the speed of one core drifts by a third or more over tens
of seconds as other tenants come and go (on the 2-core host the benchmark
was written on, a fixed loop's 15 s medians ranged from 6.6 to 10.5 ms
within 150 s). A run's median then follows the host rather than the
program. The probe runs small reference kernels,
written in the benchmark and independent of slapx, between operations; an
operation's time divided by the probe time measured around it is a ratio
in which the host's drift largely cancels and a change to slapx shows in
full.
"""
from __future__ import annotations

import heapq
import random
import statistics
import time

_RNG = random.Random(20261017)
_N = _RNG.getrandbits(1024) | (1 << 1023) | 1
_B = _RNG.getrandbits(1000)
_E = _RNG.getrandbits(256)


def _pow():
    """Modular exponentiation with a 1024-bit modulus (Miller-Rabin's core)."""
    pow(_B, _E, _N)


def _loop():
    """Interpreter-bound integer arithmetic (the EC and glue code's core)."""
    s = 0
    for i in range(4000):
        s += i * i % 7
    return s


def _events():
    """A heap of timed callbacks (the event loop's core)."""
    heap = []
    for i in range(600):
        heapq.heappush(heap, ((i * 7919) % 1000, i, lambda: None))
    while heap:
        heapq.heappop(heap)[2]()


KERNELS = {"pow": _pow, "loop": _loop, "events": _events}


# The probe's typical time on the 2-core host the benchmark was written on.
# Scaled times are "milliseconds at that host speed"; the constant only
# fixes the unit and never changes.
REF_MS = 2.5

EVERY_S = 0.1       # least time between two probe samples
WINDOW_S = 3.0      # samples this close to an operation scale its time


class HostProbe:
    """Times all kernels at most every EVERY_S seconds. `scale(t)` is
    REF_MS over the median probe time of the samples within WINDOW_S of
    `t`; a time measured at `t` times `scale(t)` is in reference
    milliseconds."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []     # (time, ms)
        self._last = -1e9

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        for kernel in KERNELS.values():
            kernel()
        self._last = time.perf_counter()
        self.samples.append(((t0 + self._last) / 2, (self._last - t0) * 1e3))

    def scale(self, t: float) -> float:
        near = [ms for ts, ms in self.samples if abs(ts - t) <= WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - t))[1]]
        return REF_MS / statistics.median(near)

    def median_ms(self) -> float:
        return statistics.median(ms for _, ms in self.samples)
