"""Synthetic workloads used by the test suite and the ablation benchmarks.

These are not from the paper; they exist to exercise specific properties of
the simulator and the predictor in isolation:

* :class:`PeriodicPatternWorkload` — rank 0 receives messages following an
  exactly periodic (sender, size) schedule; the logical stream is periodic by
  construction, so predictor accuracy and DPD period detection can be checked
  against ground truth.
* :class:`RingExchangeWorkload` — every rank exchanges with its ring
  neighbours, alternating two message sizes; a minimal SPMD pattern.
* :class:`RandomSenderWorkload` — rank 0 receives from uniformly random
  senders with wildcard receives; the stream is unpredictable by design and
  pins down the predictor's behaviour on noise.
* :class:`CollectiveStormWorkload` — repeated alltoall/allreduce fan-in used
  by the flow-control and credit experiments.
* :class:`CollectiveMixWorkload` — one of every collective flavour (blocking,
  nonblocking, rooted, vector, barrier) interleaved with point-to-point
  traffic; the coverage workload for the compiled-collective equivalence
  matrix.

All of these except :class:`RandomSenderWorkload` have statically known
per-rank schedules and run through the op-array fast lane
(:mod:`repro.workloads.compile`); random-sender's op sequence depends on its
RNG draws, so it opts out (``compile_supported = False``) and doubles as the
reference dynamic workload in the fallback and mixed-registry tests.
"""

from __future__ import annotations

from typing import Generator, Sequence

from repro.mpi.communicator import RankContext
from repro.mpi.constants import ANY_SOURCE
from repro.mpi.ops import Operation
from repro.workloads.base import Workload

__all__ = [
    "PeriodicPatternWorkload",
    "RingExchangeWorkload",
    "RandomSenderWorkload",
    "CollectiveStormWorkload",
    "CollectiveMixWorkload",
]

_TAG_PATTERN = 60
_TAG_RING = 61
_TAG_RANDOM = 62
_TAG_MIX = 63


class PeriodicPatternWorkload(Workload):
    """Rank 0 receives a strictly periodic (sender, size) schedule.

    Parameters
    ----------
    pattern:
        Sequence of ``(sender, nbytes)`` pairs defining one period of the
        stream received by rank 0.  Senders must be valid non-zero ranks.
    """

    name = "periodic-pattern"

    def __init__(
        self,
        nprocs: int,
        pattern: Sequence[tuple[int, int]] | None = None,
        **kwargs,
    ) -> None:
        if pattern is None:
            senders = [r for r in range(1, nprocs)] or [0]
            pattern = [(s, 1024 * (1 + i % 3)) for i, s in enumerate(senders * 2)]
        self.pattern = [(int(s), int(b)) for s, b in pattern]
        super().__init__(nprocs, **kwargs)

    def default_iterations(self) -> int:
        return 50

    def validate(self) -> None:
        if self.nprocs < 2:
            raise ValueError("PeriodicPatternWorkload needs at least 2 ranks")
        for sender, nbytes in self.pattern:
            if not (1 <= sender < self.nprocs):
                raise ValueError(f"pattern sender {sender} must be in [1, {self.nprocs})")
            if nbytes <= 0:
                raise ValueError(f"pattern size must be positive, got {nbytes}")

    def representative_rank(self) -> int:
        return 0

    def parameters(self) -> dict:
        return {"pattern": tuple(self.pattern), "period": len(self.pattern)}

    def program(self, ctx: RankContext) -> Generator[Operation, object, None]:
        comm = ctx.comm
        if ctx.rank == 0:
            for _iteration in range(self.iterations):
                for sender, _nbytes in self.pattern:
                    yield comm.recv(source=sender, tag=_TAG_PATTERN)
                yield self.compute(ctx, 0.5)
        else:
            my_slots = [(i, b) for i, (s, b) in enumerate(self.pattern) if s == ctx.rank]
            for _iteration in range(self.iterations):
                for _slot, nbytes in my_slots:
                    yield comm.send(0, nbytes, tag=_TAG_PATTERN)
                yield self.compute(ctx, 0.5)


class RingExchangeWorkload(Workload):
    """Every rank exchanges with its ring neighbours, alternating two sizes."""

    name = "ring-exchange"

    SMALL_BYTES = 512
    LARGE_BYTES = 32 * 1024

    def default_iterations(self) -> int:
        return 100

    def validate(self) -> None:
        if self.nprocs < 2:
            raise ValueError("RingExchangeWorkload needs at least 2 ranks")

    def representative_rank(self) -> int:
        return 0

    def program(self, ctx: RankContext) -> Generator[Operation, object, None]:
        comm = ctx.comm
        right = (ctx.rank + 1) % self.nprocs
        left = (ctx.rank - 1) % self.nprocs
        for iteration in range(self.iterations):
            nbytes = self.SMALL_BYTES if iteration % 2 == 0 else self.LARGE_BYTES
            yield from comm.sendrecv(right, nbytes, left, tag=_TAG_RING)
            yield self.compute(ctx, 1.0)


class RandomSenderWorkload(Workload):
    """Rank 0 receives with wildcard receives from random senders.

    Every non-zero rank sends ``messages_per_rank`` messages to rank 0 with
    randomised gaps, and rank 0 posts ``(nprocs - 1) * messages_per_rank``
    wildcard receives.  Arrival (and hence matching) order is governed by the
    random gaps and network jitter, so both trace levels are irregular.
    """

    name = "random-sender"
    #: The program draws gaps and sizes from ctx.rng between compute phases,
    #: so the compute-noise prefetch would reorder its stream.
    prefetch_compute_noise = False
    #: Its op sequence is data-dependent for the same reason, so the op-array
    #: compiler could never encode it: skip the compile replay and run every
    #: rank under the generator protocol (the repo's reference *dynamic*
    #: workload, exercised by the fallback tests).
    compile_supported = False

    def __init__(self, nprocs: int, messages_per_rank: int = 20, **kwargs) -> None:
        if messages_per_rank <= 0:
            raise ValueError(f"messages_per_rank must be positive, got {messages_per_rank}")
        self.messages_per_rank = int(messages_per_rank)
        super().__init__(nprocs, **kwargs)

    def default_iterations(self) -> int:
        return 1

    def validate(self) -> None:
        if self.nprocs < 3:
            raise ValueError("RandomSenderWorkload needs at least 3 ranks")

    def representative_rank(self) -> int:
        return 0

    def parameters(self) -> dict:
        return {"messages_per_rank": self.messages_per_rank}

    def program(self, ctx: RankContext) -> Generator[Operation, object, None]:
        comm = ctx.comm
        total = (self.nprocs - 1) * self.messages_per_rank * self.iterations
        if ctx.rank == 0:
            for _ in range(total):
                yield comm.recv(source=ANY_SOURCE, tag=_TAG_RANDOM)
        else:
            for _ in range(self.messages_per_rank * self.iterations):
                yield self.compute(ctx, 1.0 + 4.0 * ctx.rng.random())
                nbytes = 256 * (1 + ctx.rng.integers(0, 4))
                yield comm.send(0, nbytes, tag=_TAG_RANDOM)


class CollectiveStormWorkload(Workload):
    """Back-to-back alltoall + allreduce rounds (heavy fan-in stress)."""

    name = "collective-storm"

    def __init__(self, nprocs: int, block_bytes: int = 8 * 1024, **kwargs) -> None:
        if block_bytes <= 0:
            raise ValueError(f"block_bytes must be positive, got {block_bytes}")
        self.block_bytes = int(block_bytes)
        super().__init__(nprocs, **kwargs)

    def default_iterations(self) -> int:
        return 20

    def validate(self) -> None:
        if self.nprocs < 2:
            raise ValueError("CollectiveStormWorkload needs at least 2 ranks")

    def parameters(self) -> dict:
        return {"block_bytes": self.block_bytes}

    def program(self, ctx: RankContext) -> Generator[Operation, object, None]:
        comm = ctx.comm
        for _iteration in range(self.iterations):
            yield self.compute(ctx, 1.0)
            yield from comm.alltoall(self.block_bytes)
            yield from comm.allreduce(64)


class CollectiveMixWorkload(Workload):
    """One of every collective flavour, interleaved with point-to-point traffic.

    Each iteration runs every blocking collective — broadcast, reduce,
    allreduce, gather, scatter, allgather, alltoallv, barrier — plus both
    nonblocking ones (``ialltoall``, ``iallgather``).  The nonblocking
    alltoall is posted *after* a pair of outstanding point-to-point requests
    and waited on first, so its wait covers a contiguous slice at a nonzero
    offset of the pending list: the pattern that exercises the compiler's
    ``OP_WAIT`` lowering (a plain trailing composite would lower to offset 0).
    """

    name = "collective-mix"

    def __init__(self, nprocs: int, block_bytes: int = 4 * 1024, **kwargs) -> None:
        if block_bytes <= 0:
            raise ValueError(f"block_bytes must be positive, got {block_bytes}")
        self.block_bytes = int(block_bytes)
        super().__init__(nprocs, **kwargs)

    def default_iterations(self) -> int:
        return 10

    def validate(self) -> None:
        if self.nprocs < 2:
            raise ValueError("CollectiveMixWorkload needs at least 2 ranks")

    def parameters(self) -> dict:
        return {"block_bytes": self.block_bytes}

    def program(self, ctx: RankContext) -> Generator[Operation, object, None]:
        comm = ctx.comm
        nbytes = self.block_bytes
        right = (ctx.rank + 1) % self.nprocs
        left = (ctx.rank - 1) % self.nprocs
        varied = [nbytes * (1 + (d % 2)) for d in range(self.nprocs)]
        for _iteration in range(self.iterations):
            yield self.compute(ctx, 1.0)
            # Rooted + unrooted blocking collectives.
            yield from comm.bcast(nbytes, root=0)
            yield from comm.reduce(nbytes, root=0)
            yield from comm.allreduce(64)
            yield from comm.gather(nbytes // 2, root=0)
            yield from comm.scatter(nbytes // 2, root=0)
            yield from comm.allgather(nbytes // 4)
            yield from comm.alltoallv(varied)
            # Outstanding p2p requests, *then* a nonblocking collective: the
            # collective's wait covers pending[2:], a nonzero-offset slice.
            recv_req = yield comm.irecv(left, tag=_TAG_MIX)
            send_req = yield comm.isend(right, 128, tag=_TAG_MIX)
            coll = yield from comm.ialltoall(nbytes)
            yield comm.wait(coll)
            yield comm.waitall([recv_req, send_req])
            # Trailing nonblocking collective waited on alone (offset 0).
            gath = yield from comm.iallgather(nbytes // 4)
            yield comm.wait(gath)
            yield from comm.barrier()
