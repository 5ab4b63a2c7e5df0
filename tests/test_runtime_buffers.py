"""Tests for the eager buffer pool (repro.runtime.buffers)."""

import pytest

from repro.runtime.buffers import EagerBufferPool


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
