"""Tests for the eager buffer pool (repro.runtime.buffers)."""

import tracemalloc

import pytest

from repro.predictive.registry import policy_names
from repro.runtime.buffers import EagerBufferPool
from repro.runtime.transport import Transport
from repro.scenario import Scenario, ScenarioSpec
from repro.sim.registry import fault_preset_names


class TestConstruction:
    def test_preallocate_all(self):
        pool = EagerBufferPool(rank=0, nprocs=8, buffer_bytes=1024, preallocate_all=True)
        assert pool.preallocated_bytes == 7 * 1024
        assert pool.stats().peers_with_buffer == 7
        assert all(pool.free_bytes_for(p) == 1024 for p in range(1, 8))
        assert pool.free_bytes_for(0) == 0

    def test_no_preallocation(self):
        pool = EagerBufferPool(rank=0, nprocs=8, buffer_bytes=1024, preallocate_all=False)
        assert pool.preallocated_bytes == 0

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            EagerBufferPool(rank=8, nprocs=8)

    def test_invalid_buffer_bytes(self):
        with pytest.raises(ValueError):
            EagerBufferPool(rank=0, nprocs=2, buffer_bytes=0)


class TestAllocation:
    def test_preallocate_validates_peers(self):
        pool = EagerBufferPool(rank=0, nprocs=4, preallocate_all=False)
        with pytest.raises(ValueError):
            pool.preallocate([9])


class TestUnexpectedStorage:
    def test_store_in_buffer(self):
        pool = EagerBufferPool(rank=0, nprocs=4, buffer_bytes=100, preallocate_all=True)
        assert pool.store_unexpected(1, 60) == "buffer"
        assert pool.occupied_bytes == 60
        assert pool.free_bytes_for(1) == 40

    def test_overflow_to_heap_when_full(self):
        pool = EagerBufferPool(rank=0, nprocs=4, buffer_bytes=100, preallocate_all=True)
        pool.store_unexpected(1, 80)
        assert pool.store_unexpected(1, 50) == "heap"
        assert pool.heap_bytes == 50
        assert pool.overflow_events == 1

    def test_heap_when_no_buffer(self):
        pool = EagerBufferPool(rank=0, nprocs=4, buffer_bytes=100, preallocate_all=False)
        assert pool.store_unexpected(2, 10) == "heap"
        assert pool.overflow_events == 1

    def test_release_buffer_storage(self):
        pool = EagerBufferPool(rank=0, nprocs=4, buffer_bytes=100, preallocate_all=True)
        pool.store_unexpected(1, 60)
        pool.release_unexpected(1, 60, "buffer")
        assert pool.occupied_bytes == 0
        assert pool.free_bytes_for(1) == 100

    def test_release_heap_storage(self):
        pool = EagerBufferPool(rank=0, nprocs=4, buffer_bytes=10, preallocate_all=False)
        pool.store_unexpected(1, 50)
        pool.release_unexpected(1, 50, "heap")
        assert pool.heap_bytes == 0

    def test_release_unknown_storage(self):
        pool = EagerBufferPool(rank=0, nprocs=4)
        with pytest.raises(ValueError):
            pool.release_unexpected(1, 10, "disk")

    def test_negative_bytes_rejected(self):
        pool = EagerBufferPool(rank=0, nprocs=4)
        with pytest.raises(ValueError):
            pool.store_unexpected(1, -1)


class TestAccounting:
    def test_peak_tracks_heap(self):
        pool = EagerBufferPool(rank=0, nprocs=4, buffer_bytes=100, preallocate_all=False)
        pool.store_unexpected(1, 500)
        pool.release_unexpected(1, 500, "heap")
        assert pool.peak_total_bytes == 500
        assert pool.heap_bytes == 0

    def test_peak_includes_preallocation(self):
        pool = EagerBufferPool(rank=0, nprocs=11, buffer_bytes=1000, preallocate_all=True)
        assert pool.peak_total_bytes == 10 * 1000

    def test_stats_snapshot(self):
        pool = EagerBufferPool(rank=2, nprocs=4, buffer_bytes=100, preallocate_all=True)
        pool.store_unexpected(1, 10)
        stats = pool.stats()
        assert stats.rank == 2
        assert stats.peers_with_buffer == 3
        assert stats.occupied_bytes == 10
        assert stats.total_bytes == stats.preallocated_bytes + stats.heap_bytes

    def test_free_bytes_for_unbuffered_peer(self):
        pool = EagerBufferPool(rank=0, nprocs=4, preallocate_all=False)
        assert pool.free_bytes_for(1) == 0


class TestAllPeersPool:
    """Every other rank has a buffer: a count, with no per-peer container."""

    def test_holds_no_per_peer_container(self):
        tracemalloc.start()
        try:
            pool = EagerBufferPool(rank=17, nprocs=4096)
            traced, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A set of the 4,095 peers alone takes ~256 KB.
        assert traced < 4096
        stats = pool.stats()
        assert stats.peers_with_buffer == 4095
        assert stats.preallocated_bytes == pool.peak_total_bytes == 4095 * 16 * 1024

    def test_holds_no_set(self):
        pool = EagerBufferPool(rank=17, nprocs=4096)
        assert [v for v in vars(pool).values() if isinstance(v, (set, frozenset))] == []
        named = EagerBufferPool(rank=17, nprocs=4096, preallocate_all=False)
        assert [v for v in vars(named).values() if isinstance(v, set)] == [set()]

    def test_which_peers_have_a_buffer(self):
        pool = EagerBufferPool(rank=17, nprocs=4096, buffer_bytes=100)
        assert pool.free_bytes_for(0) == pool.free_bytes_for(4095) == 100
        assert pool.free_bytes_for(17) == 0
        assert pool.free_bytes_for(-1) == pool.free_bytes_for(4096) == 0
        assert pool.store_unexpected(17, 10) == "heap"
        assert pool.store_unexpected(4095, 10) == "buffer"

    def test_preallocate_is_a_validated_no_op(self):
        pool = EagerBufferPool(rank=0, nprocs=4096, buffer_bytes=100)
        before = pool.stats()
        pool.preallocate([0, 1, 4095])
        assert pool.stats() == before
        with pytest.raises(ValueError):
            pool.preallocate([1, 4096])
        with pytest.raises(TypeError):
            pool.preallocate([1.5])
        assert pool.stats() == before

    def test_named_peers_pool_counts_its_set(self):
        pool = EagerBufferPool(rank=0, nprocs=8, buffer_bytes=100, preallocate_all=False)
        pool.preallocate([0, 3, 5, 3])
        assert pool.stats().peers_with_buffer == 2
        assert pool.preallocated_bytes == pool.peak_total_bytes == 200
        assert pool.free_bytes_for(3) == 100 and pool.free_bytes_for(4) == 0


class TestConservation:
    """Every byte stored comes back exactly once; an over-release raises."""

    def test_over_release_of_buffer_bytes_raises(self):
        pool = EagerBufferPool(rank=2, nprocs=4, buffer_bytes=100)
        pool.store_unexpected(1, 60)
        with pytest.raises(ValueError, match="rank 2: releasing 61 buffer bytes of peer 1, but only 60"):
            pool.release_unexpected(1, 61, "buffer")
        assert pool.occupied_bytes == 60

    def test_release_from_a_peer_with_nothing_held_raises(self):
        pool = EagerBufferPool(rank=2, nprocs=4, buffer_bytes=100)
        pool.store_unexpected(1, 60)
        with pytest.raises(ValueError, match="peer 3, but only 0"):
            pool.release_unexpected(3, 1, "buffer")

    def test_over_release_of_heap_bytes_raises(self):
        pool = EagerBufferPool(rank=0, nprocs=4, buffer_bytes=10, preallocate_all=False)
        pool.store_unexpected(1, 50)
        with pytest.raises(ValueError, match="rank 0: releasing 51 heap bytes of peer 1, but only 50"):
            pool.release_unexpected(1, 51, "heap")
        assert pool.heap_bytes == 50


#: (workload, policy, fault preset): the five registered policies on five
#: applications, then the five fault presets on three.  LU, BT and CG run a
#: few iterations only (≈ 12 s for the matrix); under the predictive policies
#: lu.64 still overflows to the heap thousands of times in one iteration.
POOL_CELLS = [
    (workload, policy, "none")
    for workload in (
        "lu.64:scale=0.1,iterations=1",
        "bt.16:scale=0.1,iterations=4",
        "cg.32:scale=0.1,iterations=1",
        "is.32:scale=0.1",
        "sweep3d.16:scale=0.1",
    )
    for policy in policy_names()
] + [
    (workload, "standard", faults)
    for workload in ("lu.16:scale=0.1,iterations=4", "bt.9:scale=0.1", "is.8:scale=0.1")
    for faults in fault_preset_names()
]


@pytest.mark.parametrize(
    "workload, policy, faults", POOL_CELLS, ids=["-".join(cell) for cell in POOL_CELLS]
)
def test_every_pool_is_back_to_zero_after_a_run(workload, policy, faults, monkeypatch):
    # A receive that matches a buffered eager message releases the storage
    # class the pool stored it under, never a stand-in for a missing one.
    storages = []
    complete = Transport._complete_from_unexpected

    def recording(self, posted, entry, now):
        storages.append(entry.storage)
        complete(self, posted, entry, now)

    monkeypatch.setattr(Transport, "_complete_from_unexpected", recording)
    spec = ScenarioSpec(workload=workload, policy=policy, faults=faults, trace=False, seed=2003)
    stats = Scenario(spec).run().result.buffer_stats
    assert len(stats) == int(workload.split(".")[1].split(":")[0])
    assert [(s.rank, s.occupied_bytes, s.heap_bytes) for s in stats] == [
        (s.rank, 0, 0) for s in stats
    ]
    assert set(storages) <= {"buffer", "heap"}
    # Every cell but the one sending nothing eagerly matches some.
    assert storages or policy == "always-rendezvous"
