"""Per-peer eager buffer pools and memory accounting.

Section 2.1 of the paper: standard MPI implementations pre-allocate one eager
buffer per peer (16 KB each in the IBM implementation), so per-process buffer
memory grows linearly with the job size — 160 MB per process at 10 000 ranks.
The :class:`EagerBufferPool` models that memory: pre-allocated buffer bytes,
bytes occupied by unexpected eager messages, heap overflow when an unexpected
message has nowhere to go, and the peak across the run.

The predictive buffer manager (:mod:`repro.predictive.buffer_manager`) keeps
its own account of the buffers it decides to hold and does not touch this
pool; the Section 2.1 memory-reduction experiment compares its peak against
the ``(P - 1) * buffer_bytes`` this pool pre-allocates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_non_negative, check_positive, check_rank

__all__ = ["BufferPoolStats", "EagerBufferPool"]


@dataclass(frozen=True)
class BufferPoolStats:
    """Snapshot of one rank's eager-buffer memory accounting."""

    rank: int
    peers_with_buffer: int
    preallocated_bytes: int
    occupied_bytes: int
    heap_bytes: int
    peak_total_bytes: int
    overflow_events: int

    @property
    def total_bytes(self) -> int:
        """Currently committed memory (pre-allocated buffers + heap)."""
        return self.preallocated_bytes + self.heap_bytes


class EagerBufferPool:
    """Eager-buffer memory model for one receiving rank.

    Parameters
    ----------
    rank:
        Owning rank.
    nprocs:
        Job size (defines the set of possible peers).
    buffer_bytes:
        Size of one per-peer eager buffer.
    preallocate_all:
        If True, allocate a buffer for every other rank at construction (the
        standard MPI behaviour).  If False, only the peers handed to
        :meth:`preallocate` get one, and an unexpected message from a
        bufferless peer is counted as an overflow + heap allocation.
    """

    def __init__(
        self,
        rank: int,
        nprocs: int,
        buffer_bytes: int = 16 * 1024,
        preallocate_all: bool = True,
    ) -> None:
        check_positive("nprocs", nprocs)
        check_rank("rank", rank, nprocs)
        check_positive("buffer_bytes", buffer_bytes)
        self.rank = rank
        self.nprocs = nprocs
        self.buffer_bytes = int(buffer_bytes)
        self._buffered_peers: set[int] = set()
        self._occupied: dict[int, int] = {}
        self._heap_bytes = 0
        self._peak_total = 0
        self.overflow_events = 0
        if preallocate_all:
            self.preallocate(p for p in range(nprocs) if p != rank)

    # ------------------------------------------------------------------
    def preallocate(self, peers) -> None:
        """Allocate a buffer for each peer in ``peers`` (idempotent)."""
        for peer in peers:
            check_rank("peer", peer, self.nprocs)
            if peer == self.rank:
                continue
            self._buffered_peers.add(peer)
        self._update_peak()

    def free_bytes_for(self, peer: int) -> int:
        """Remaining space in the buffer of ``peer`` (0 if no buffer)."""
        if peer not in self._buffered_peers:
            return 0
        return self.buffer_bytes - self._occupied.get(peer, 0)

    # ------------------------------------------------------------------
    def store_unexpected(self, peer: int, nbytes: int) -> str:
        """Account an unexpected eager message from ``peer``.

        Returns the storage class used: ``"buffer"`` if it fit in the peer's
        eager buffer, ``"heap"`` if heap memory had to be allocated (the
        out-of-memory risk the paper's Section 2.2 describes).
        """
        check_non_negative("nbytes", nbytes)
        if peer in self._buffered_peers and self.free_bytes_for(peer) >= nbytes:
            self._occupied[peer] = self._occupied.get(peer, 0) + int(nbytes)
            self._update_peak()
            return "buffer"
        self.overflow_events += 1
        self._heap_bytes += int(nbytes)
        self._update_peak()
        return "heap"

    def release_unexpected(self, peer: int, nbytes: int, storage: str) -> None:
        """Release memory accounted by :meth:`store_unexpected`."""
        check_non_negative("nbytes", nbytes)
        if storage == "buffer":
            current = self._occupied.get(peer, 0)
            self._occupied[peer] = max(0, current - int(nbytes))
        elif storage == "heap":
            self._heap_bytes = max(0, self._heap_bytes - int(nbytes))
        else:
            raise ValueError(f"unknown storage class {storage!r}")

    # ------------------------------------------------------------------
    @property
    def preallocated_bytes(self) -> int:
        """Memory committed to per-peer eager buffers."""
        return len(self._buffered_peers) * self.buffer_bytes

    @property
    def heap_bytes(self) -> int:
        """Heap memory currently holding unexpected overflow messages."""
        return self._heap_bytes

    @property
    def occupied_bytes(self) -> int:
        """Bytes of eager-buffer space currently holding unexpected data."""
        return sum(self._occupied.values())

    @property
    def peak_total_bytes(self) -> int:
        """Peak of (pre-allocated + heap) memory over the run."""
        return self._peak_total

    def _update_peak(self) -> None:
        total = self.preallocated_bytes + self._heap_bytes
        if total > self._peak_total:
            self._peak_total = total

    def stats(self) -> BufferPoolStats:
        """Return an immutable snapshot of the pool's accounting."""
        return BufferPoolStats(
            rank=self.rank,
            peers_with_buffer=len(self._buffered_peers),
            preallocated_bytes=self.preallocated_bytes,
            occupied_bytes=self.occupied_bytes,
            heap_bytes=self._heap_bytes,
            peak_total_bytes=self._peak_total,
            overflow_events=self.overflow_events,
        )
