"""Host-speed normalisation: time a fixed kernel between units of work.

On a shared machine the same simulation can take 30-40% longer for minutes
at a time when neighbours load the core (the process's CPU time slows just as
much, so CPU time is no cure).  The benchmark therefore times a small,
fixed, pure-Python kernel between units and expresses each unit's host time
at a reference speed: ``seconds * REFERENCE_S / kernel_seconds``, with the
kernel time the median of the samples taken around the unit.

The kernel uses nothing from ``repro``, so a change to the simulator never
moves it: a simulator regression shows in full.  It runs with the cyclic
garbage collector paused, so the simulator's heap cannot slow it.  Raw host
times are printed beside the normalised ones.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from typing import List, Tuple

#: Seconds one kernel call takes at the reference speed (roughly its time on
#: the 2-vCPU x86-64 machine the benchmark was defined on).
REFERENCE_S = 0.002
#: Kernel calls per sample; the median is kept.
CALLS = 3
#: Least work between two samples, so sampling costs a few percent.
INTERVAL_S = 0.1
#: Samples on each side of a span that set its speed (a median damps the
#: kernel's own jitter).
NEIGHBOURS = 2


def kernel(iterations: int = 5000) -> int:
    """Interpreter-bound work: calls, integer arithmetic, dict and list access."""
    table = {}
    ring = [0] * 64
    total = 0
    for i in range(iterations):
        key = (i * 7919) % 251
        table[key] = table.get(key, 0) + i
        ring[i & 63] ^= key
        total += ring[(i * 13) & 63] % 7
    return total + len(table)


class Speedometer:
    """Samples the kernel over a round and normalises spans of host time."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        #: (moment the sample ended, kernel seconds)
        self.samples: List[Tuple[float, float]] = []
        #: (start, end) of each sample, so callers can leave them out.
        self.sampling: List[Tuple[float, float]] = []

    def sample(self) -> float:
        """Time the kernel now; returns the kernel seconds."""
        begun = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(CALLS):
                started = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - started)
        finally:
            if enabled:
                gc.enable()
        seconds = statistics.median(times)
        ended = time.perf_counter()
        self.samples.append((ended, seconds))
        self.sampling.append((begun, ended))
        return seconds

    def maybe_sample(self) -> None:
        """Sample when ``interval`` has passed since the last sample."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= self.interval:
            self.sample()

    def kernel_s(self, start: float, end: float) -> float:
        """Kernel time around the span: the median of the samples from
        ``NEIGHBOURS`` before ``start`` to ``NEIGHBOURS`` after ``end``."""
        moments = [moment for moment, _seconds in self.samples]
        first = max(0, bisect.bisect_right(moments, start) - NEIGHBOURS)
        last = bisect.bisect_left(moments, end) + NEIGHBOURS
        return statistics.median(seconds for _moment, seconds in self.samples[first:last])

    def excluding(self, start: float, end: float) -> List[Tuple[float, float]]:
        """The span cut into the pieces between samples taken inside it."""
        pieces = []
        for begun, ended in self.sampling:
            if start < begun and ended < end:
                pieces.append((start, begun))
                start = ended
        pieces.append((start, end))
        return pieces

    def normalise(self, start: float, end: float) -> float:
        """The span's host seconds at the reference speed."""
        return (end - start) * REFERENCE_S / self.kernel_s(start, end)

    def median_kernel_s(self) -> float:
        return statistics.median(seconds for _moment, seconds in self.samples)
