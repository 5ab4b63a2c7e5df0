"""Application-facing MPI API: the communicator and rank context.

A rank program receives a :class:`RankContext` and drives communication
through its :class:`Communicator`:

* point-to-point methods (:meth:`Communicator.send`, :meth:`recv`,
  :meth:`isend`, :meth:`irecv`, :meth:`wait`, :meth:`waitall`) return
  operation objects that the program must ``yield`` to the engine;
* collective methods (:meth:`bcast`, :meth:`reduce`, :meth:`allreduce`,
  :meth:`allgather`, :meth:`alltoall`, :meth:`alltoallv`, :meth:`gather`,
  :meth:`scatter`, :meth:`barrier`) are generators that the program drives
  with ``yield from``; they decompose into point-to-point traffic exactly
  like a real MPI library.  The nonblocking :meth:`ialltoall` and
  :meth:`iallgather` are driven the same way and *return* a composite
  request: ``req = yield from comm.ialltoall(n)``, later
  ``yield comm.wait(req)``.  ``yield from`` is the only spelling — a bare
  ``yield comm.bcast(n)`` hands the engine a generator object, which it
  rejects with a :class:`repro.sim.errors.ProgramError`;
* :meth:`compute` models local computation time.

Example
-------
A two-rank ping-pong::

    def program(ctx):
        comm = ctx.comm
        other = 1 - ctx.rank
        for _ in range(10):
            if ctx.rank == 0:
                yield comm.send(other, nbytes=1024, tag=7)
                yield comm.recv(source=other, tag=7)
            else:
                yield comm.recv(source=other, tag=7)
                yield comm.send(other, nbytes=1024, tag=7)
            yield from comm.barrier()

Relation to the op-array fast lane
----------------------------------
Everything this API produces — point-to-point operations, ``sendrecv`` and
every collective — decomposes into a *deterministic* operation sequence for
a given (rank, size, arguments): collective tags come from a per-communicator
sequence counter and the algorithms branch only on rank arithmetic.  That
determinism is what lets :mod:`repro.workloads.compile` replay a program
once and encode the yielded operations into flat op arrays
(:class:`repro.mpi.ops.OpArrays`).  Argument validation then happens at that
single replay (or at yield time under the generator protocol), never per-op
in the engine's compiled lane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Sequence

from repro.mpi import collectives as _coll
from repro.mpi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    COLLECTIVE_TAG_BASE,
    KIND_P2P,
    MAX_USER_TAG,
)
from repro.mpi.ops import (
    ComputeOp,
    IrecvOp,
    IsendOp,
    Operation,
    RecvOp,
    SendOp,
    WaitallOp,
    WaitOp,
)
from repro.mpi.request import CollectiveRequest, Request
from repro.util.rng import SeededRNG
from repro.util.validation import check_non_negative, check_rank

__all__ = ["Communicator", "RankContext"]


def _check_tag(tag: int) -> int:
    if tag == ANY_TAG:
        return tag
    if not (0 <= tag <= MAX_USER_TAG):
        raise ValueError(f"tag must be in [0, {MAX_USER_TAG}] or ANY_TAG, got {tag}")
    return tag


class Communicator:
    """An ``MPI_COMM_WORLD``-like communicator bound to one rank.

    Parameters
    ----------
    rank:
        The owning rank.
    size:
        Number of ranks in the communicator.
    """

    def __init__(self, rank: int, size: int) -> None:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        check_rank("rank", rank, size)
        self.rank = rank
        self.size = size
        self._collective_seq = 0
        # (dest, source, tag) triples already validated by sendrecv():
        # neighbour exchanges repeat a handful of triples thousands of times.
        self._sendrecv_validated: set[tuple[int, int, int]] = set()

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(self, dest: int, nbytes: int, tag: int = 0) -> SendOp:
        """Blocking standard-mode send of ``nbytes`` to ``dest``."""
        check_rank("dest", dest, self.size)
        check_non_negative("nbytes", nbytes)
        return SendOp(dest, int(nbytes), _check_tag(tag), KIND_P2P)

    def isend(self, dest: int, nbytes: int, tag: int = 0) -> IsendOp:
        """Non-blocking send; yielding it returns a :class:`Request`."""
        check_rank("dest", dest, self.size)
        check_non_negative("nbytes", nbytes)
        return IsendOp(dest, int(nbytes), _check_tag(tag), KIND_P2P)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvOp:
        """Blocking receive; yielding it returns a :class:`Status`."""
        if source != ANY_SOURCE:
            check_rank("source", source, self.size)
        return RecvOp(source, _check_tag(tag), KIND_P2P)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> IrecvOp:
        """Non-blocking receive; yielding it returns a :class:`Request`."""
        if source != ANY_SOURCE:
            check_rank("source", source, self.size)
        return IrecvOp(source, _check_tag(tag), KIND_P2P)

    def wait(self, request: Request) -> WaitOp:
        """Wait for one request."""
        return WaitOp(request)

    def waitall(self, requests: Sequence[Request]) -> WaitallOp:
        """Wait for all requests in ``requests``."""
        return WaitallOp(list(requests))

    def compute(self, seconds: float) -> ComputeOp:
        """Advance the local clock by ``seconds`` of computation."""
        check_non_negative("seconds", seconds)
        return ComputeOp(float(seconds))

    def sendrecv(
        self, dest: int, nbytes: int, source: int, tag: int = 0
    ) -> Generator[Operation, object, None]:
        """Deadlock-free combined send/receive (use with ``yield from``).

        The receive is posted before the send so that two ranks exchanging
        rendezvous-sized messages never deadlock.  The body is inlined (rather
        than delegating to :func:`repro.mpi.collectives.sendrecv`) because
        neighbour exchanges are the hottest program pattern and an extra
        ``yield from`` level costs on every resumption.
        """
        key = (dest, source, tag)
        if key not in self._sendrecv_validated:
            check_rank("dest", dest, self.size)
            if source != ANY_SOURCE:
                check_rank("source", source, self.size)
            _check_tag(tag)
            self._sendrecv_validated.add(key)
        if nbytes < 0:
            check_non_negative("nbytes", nbytes)
        recv_req = yield IrecvOp(source, tag, KIND_P2P)
        send_req = yield IsendOp(dest, int(nbytes), tag, KIND_P2P)
        yield WaitallOp([recv_req, send_req])

    # ------------------------------------------------------------------
    # Collectives (use with ``yield from``)
    # ------------------------------------------------------------------
    def _next_collective_tag(self) -> int:
        tag = COLLECTIVE_TAG_BASE + self._collective_seq * _coll.TAG_STRIDE
        self._collective_seq += 1
        return tag

    def barrier(self) -> Generator[Operation, object, None]:
        """Dissemination barrier."""
        yield from _coll.barrier(self.rank, self.size, self._next_collective_tag())

    def bcast(self, nbytes: int, root: int = 0) -> Generator[Operation, object, None]:
        """Binomial-tree broadcast of ``nbytes`` from ``root``."""
        check_rank("root", root, self.size)
        check_non_negative("nbytes", nbytes)
        yield from _coll.broadcast(self.rank, self.size, int(nbytes), root, self._next_collective_tag())

    def reduce(self, nbytes: int, root: int = 0) -> Generator[Operation, object, None]:
        """Binomial-tree reduction of ``nbytes`` to ``root``."""
        check_rank("root", root, self.size)
        check_non_negative("nbytes", nbytes)
        yield from _coll.reduce(self.rank, self.size, int(nbytes), root, self._next_collective_tag())

    def allreduce(self, nbytes: int) -> Generator[Operation, object, None]:
        """Reduce-to-root plus broadcast of ``nbytes``."""
        check_non_negative("nbytes", nbytes)
        yield from _coll.allreduce(self.rank, self.size, int(nbytes), self._next_collective_tag())

    def allgather(self, nbytes: int) -> Generator[Operation, object, None]:
        """Ring allgather where each rank contributes ``nbytes``."""
        check_non_negative("nbytes", nbytes)
        yield from _coll.allgather(self.rank, self.size, int(nbytes), self._next_collective_tag())

    def gather(self, nbytes: int, root: int = 0) -> Generator[Operation, object, None]:
        """Flat gather of ``nbytes`` contributions at ``root``."""
        check_rank("root", root, self.size)
        check_non_negative("nbytes", nbytes)
        yield from _coll.gather(self.rank, self.size, int(nbytes), root, self._next_collective_tag())

    def scatter(self, nbytes: int, root: int = 0) -> Generator[Operation, object, None]:
        """Flat scatter of ``nbytes`` blocks from ``root``."""
        check_rank("root", root, self.size)
        check_non_negative("nbytes", nbytes)
        yield from _coll.scatter(self.rank, self.size, int(nbytes), root, self._next_collective_tag())

    def alltoall(self, nbytes: int) -> Generator[Operation, object, None]:
        """Pairwise alltoall with a uniform per-pair payload of ``nbytes``."""
        check_non_negative("nbytes", nbytes)
        yield from _coll.alltoall(self.rank, self.size, int(nbytes), self._next_collective_tag())

    def alltoallv(self, send_bytes: Sequence[int]) -> Generator[Operation, object, None]:
        """Pairwise alltoallv; ``send_bytes[d]`` is the payload sent to rank ``d``."""
        for value in send_bytes:
            check_non_negative("send_bytes[]", value)
        yield from _coll.alltoallv(self.rank, self.size, list(send_bytes), self._next_collective_tag())

    def ialltoall(self, nbytes: int) -> Generator[Operation, object, CollectiveRequest]:
        """Nonblocking alltoall: ``req = yield from comm.ialltoall(n)`` posts
        it and returns the composite request to ``wait`` / ``waitall`` on."""
        check_non_negative("nbytes", nbytes)
        return (yield from _coll.ialltoall(self.rank, self.size, int(nbytes), self._next_collective_tag()))

    def iallgather(self, nbytes: int) -> Generator[Operation, object, CollectiveRequest]:
        """Nonblocking allgather: ``req = yield from comm.iallgather(n)``."""
        check_non_negative("nbytes", nbytes)
        return (yield from _coll.iallgather(self.rank, self.size, int(nbytes), self._next_collective_tag()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Communicator(rank={self.rank}, size={self.size})"


@dataclass
class RankContext:
    """Everything a rank program gets handed at start-up.

    Attributes
    ----------
    rank:
        The rank's id in ``[0, size)``.
    size:
        Number of ranks in the job.
    comm:
        The rank's :class:`Communicator`.
    rng:
        Per-rank seeded RNG, used by workload skeletons for compute-time noise
        and data-dependent message sizes.
    params:
        Free-form workload parameters (filled by the workload definitions).
    """

    rank: int
    size: int
    comm: Communicator
    rng: SeededRNG
    params: dict = field(default_factory=dict)
