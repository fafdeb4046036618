"""Host-speed calibration: times are reported at the reference host's speed.

The hosts this benchmark runs on (2-vCPU VMs) drop to roughly two thirds
of their speed for minutes at a time when a neighbour shares the core, so
a raw wall clock compares the neighbour, not the commit.  Every timed
run therefore interleaves its timed sections with *calibration slices* —
a fixed piece of interpreter-bound work shaped like the program (dict and
heap traffic plus small numpy kernels) — and multiplies every time it
reports by ``REFERENCE_SLICE_S / median(slice walls)``.  On an undisturbed
reference host the factor is 1 and the numbers are plain seconds; the raw
walls and the factor are kept in every document.

The slice is the benchmark's own code, identical on every commit, so it
cannot move with a change to the program.
"""

from __future__ import annotations

import gc
import os
import statistics
from heapq import heappop, heappush
from time import perf_counter

import numpy as np

#: Wall of one slice on the undisturbed reference host (2 cores, Xeon
#: 2.1 GHz, CPython 3.11, numpy 2.4).  Fixes the unit, nothing else.
REFERENCE_SLICE_S = 0.178


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on this platform
        return os.cpu_count() or 1


def slice_wall() -> float:
    """Run one calibration slice; returns its wall in seconds.

    The collector is off for the slice: its allocations would otherwise
    trigger collections whose cost grows with the *caller's* heap, and a
    traced run (hundreds of thousands of span tuples) would read as a
    slower host.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        begun = perf_counter()
        table: dict = {}
        heap: list = []
        for i in range(300_000):
            key = (i * 2654435761) & 8191
            table[key] = table.get(key, 0) + i
            heappush(heap, (key, i))
            if i & 3 == 3:
                heappop(heap)
        values = np.arange(40_000.0)[::-1].copy()
        for _ in range(16):
            order = np.argsort(values)
            np.minimum(values, values[order]).sum()
        return perf_counter() - begun
    finally:
        if collecting:
            gc.enable()


class SpeedMeter:
    """Collects calibration slices over a run; one factor for all its times.

    ``mark()`` runs a slice — call it between timed sections, never inside
    one.  ``factor()`` is ``REFERENCE_SLICE_S`` over the *median* slice:
    slow spells last minutes and a run well under one, so one factor per
    run tracks them, while the median shrugs off the single slice that a
    collection or an interrupt stretched (bracketing every section with
    its own two slices was tried and doubled the spread of a 13 s
    operation).
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer  # slices get a span of their own, not a layer's
        self.slices: list[float] = []
        self.mark()

    def mark(self) -> None:
        self.slices.append(self.tracer.call("ledger.calibration", slice_wall))

    def factor(self) -> float:
        return REFERENCE_SLICE_S / statistics.median(self.slices)
