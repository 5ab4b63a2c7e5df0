"""Host speed, measured beside every timed pass; ``ops_per_s`` is scaled by it.

The hosts this benchmark runs on drift.  Three sets of ten runs (ten seeds) of
each workload gave these quartile spreads of the rate, as shares of the median:

    raw median of the passes   0.05-0.34   (sim-wavefront-lu 0.34, serve-cold-churn 0.25)
    raw best pass              0.05-0.32
    scaled median (below)      0.02-0.09

while a fixed few milliseconds of interpreter work slowed and sped up in step.
The driver refuses a benchmark whose spread exceeds its bound, and no bound
may exceed 0.25, so the raw rate cannot carry one.  ``ops_per_s`` alone is
therefore reported at reference speed: the harness runs :func:`host_speed`
just before and just after each timed pass and divides the pass's rate by the
mean of the two.  ``harness.ops_per_s_raw`` and ``harness.host_speed`` are
reported beside it.  Every other metric is as read: set-up and snapshot round
trips are process spawn and import I/O as much as interpreter work, open-loop
latency includes tick and schedule wait, and the loop is no model of them.

The loop touches nothing under ``src/``: a change to the program cannot move
it.  It is the interpreter work a simulator or a server does most of — heap
pushes and pops of small tuples, dict updates, list allocation, short numpy
comparisons — with the cyclic collector off so that the size of the caller's
heap does not enter.
"""

from __future__ import annotations

import gc
import heapq
import os
import time

import numpy as np

#: Seconds one loop takes at reference speed.  Only a normaliser (it puts
#: ``harness.host_speed`` near 1 on the host the benchmark was sized on): base
#: and change are measured on one host with one value, and it cancels.
REFERENCE_S = 0.0038
#: Loops per reading.  A reading is their lower quartile: a stall only ever
#: adds time, and back-to-back readings then differ by 3-4% where single
#: 45 ms loops differed by 10%.
LOOPS = 9


def _loop() -> None:
    heap: list = []
    counts: dict[int, int] = {}
    small = np.arange(256, dtype=np.int64)
    push, pop = heapq.heappush, heapq.heappop
    for i in range(5333):
        push(heap, ((i * 7919) % 10007, i, [i, None]))
        counts[i & 1023] = counts.get(i & 1023, 0) + i
        if i & 3 == 3:
            pop(heap)
            pop(heap)
        if i & 63 == 0:
            (small[1:] != small[:-1]).sum()


def host_speed(cpu: int | None = None) -> float:
    """Reference time over measured time of the loop: 1.0 at reference speed, lower when slow.

    With ``cpu``, the calling thread moves there for the reading: the two CPUs
    of one host slow down independently of each other, for seconds at a time,
    so the speed of a process pinned to a CPU has to be read on that CPU.
    """
    was_enabled = gc.isenabled()
    allowed = os.sched_getaffinity(0)
    gc.disable()
    times = []
    try:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        for _ in range(LOOPS):
            start = time.perf_counter()
            _loop()
            times.append(time.perf_counter() - start)
    finally:
        if cpu is not None:
            os.sched_setaffinity(0, allowed)
        if was_enabled:
            gc.enable()
    return REFERENCE_S / sorted(times)[LOOPS // 4]


class SpeedMeter:
    """Host speed around timed sections that follow one another.

    ``around()`` is called after a section: it takes a fresh reading and
    returns its mean with the one before, which the next section reuses.
    """

    def __init__(self, cpu: int | None = None) -> None:
        self._cpu = cpu
        self._last = host_speed(cpu)

    def around(self) -> float:
        before, self._last = self._last, host_speed(self._cpu)
        return (before + self._last) / 2.0
