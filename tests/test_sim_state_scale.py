"""A rank's simulator state does not grow with the job size.

The modelled eager buffers are P - 1 per rank (Section 2.1); the simulator
must hold that as a count, not as P - 1 entries, or building a job costs
O(P^2) memory and time.
"""

import tracemalloc

from repro.sim.engine import Simulator


def traced_bytes_per_rank(nprocs: int) -> float:
    tracemalloc.start()
    try:
        simulator = Simulator(nprocs=nprocs)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del simulator
    return traced / nprocs


def test_bytes_per_rank_do_not_grow_with_the_job_size():
    Simulator(nprocs=4)  # one-time imports and caches stay out of the figures
    small, large = traced_bytes_per_rank(512), traced_bytes_per_rank(2048)
    assert small < 8 * 1024 and large < 8 * 1024, (small, large)
    assert max(small, large) / min(small, large) < 1.5, (small, large)
