"""Operation objects yielded by rank programs, and their flat array encoding.

Rank programs speak one of two protocols to the simulation engine:

**Generator protocol** (the original, fully general one).  A rank program is
a Python generator.  Each ``yield`` hands one of the operation objects below
to the engine, which executes it against the runtime transport and resumes
the generator with the operation's result:

===================  =======================================================
operation            value sent back into the generator
===================  =======================================================
:class:`SendOp`      ``None`` (returns once the send buffer is reusable)
:class:`IsendOp`     a :class:`repro.mpi.request.Request`
:class:`RecvOp`      a :class:`repro.mpi.request.Status`
:class:`IrecvOp`     a :class:`repro.mpi.request.Request`
:class:`WaitOp`      the request's :class:`Status` (``None`` for sends)
:class:`WaitallOp`   list of statuses (``None`` entries for sends)
:class:`ComputeOp`   ``None`` (local virtual time advances)
===================  =======================================================

Applications normally do not construct these directly; they use the methods
of :class:`repro.mpi.communicator.Communicator`, which validate arguments and
fill in the message ``kind``.

**Op-array protocol** (the fast lane).  Workloads whose communication
schedule is statically known per rank precompile it into an
:class:`OpArrays` — parallel typed lanes, one entry per operation, mirroring
the flat typed event records of :mod:`repro.sim.events`:

=========== ========  ===================================================
lane        type      meaning
=========== ========  ===================================================
``op``      ``int``   one of the ``OP_*`` codes below
``a``       ``int``   peer rank (sends/recvs), request count (waitall),
                      noisy-compute flag (compute)
``nbytes``  ``int``   message size in bytes (0 for non-message ops)
``tag``     ``int``   message tag (0 for non-message ops)
``seconds`` ``float`` base compute seconds (0.0 for non-compute ops)
``kind``    ``str``   message-kind string (``None`` for non-message ops)
=========== ========  ===================================================

The engine consumes op arrays directly — one cursor advance and a few lane
loads per operation — instead of resuming a generator, allocating an
operation object and re-validating communicator arguments per op.  A
:class:`CompiledProgram` wraps the (shareable, cacheable) lanes together
with the per-run compute-noise state; see
:mod:`repro.workloads.compile` for how schedules are compiled and cached and
:meth:`repro.sim.engine.Simulator.run` for how the engine dispatches them.
All arguments are validated at compile time, so lane values are trusted by
the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.mpi.constants import ANY_SOURCE, ANY_TAG, KIND_P2P
from repro.mpi.request import Request

__all__ = [
    "Operation",
    "SendOp",
    "IsendOp",
    "RecvOp",
    "IrecvOp",
    "WaitOp",
    "WaitallOp",
    "ComputeOp",
    "CollectiveOp",
    "BcastOp",
    "ReduceOp",
    "AllreduceOp",
    "AllgatherOp",
    "GatherOp",
    "ScatterOp",
    "AlltoallOp",
    "AlltoallvOp",
    "BarrierOp",
    "IalltoallOp",
    "IallgatherOp",
    "OP_COMPUTE",
    "OP_SEND",
    "OP_ISEND",
    "OP_RECV",
    "OP_IRECV",
    "OP_WAITALL",
    "OP_WAIT",
    "OP_BCAST",
    "OP_REDUCE",
    "OP_ALLREDUCE",
    "OP_ALLGATHER",
    "OP_GATHER",
    "OP_SCATTER",
    "OP_ALLTOALL",
    "OP_ALLTOALLV",
    "OP_BARRIER",
    "OP_IALLTOALL",
    "OP_IALLGATHER",
    "COLLECTIVE_OP_CODES",
    "OpArrays",
    "CompiledProgram",
]


class Operation:
    """Base class for everything a rank program may ``yield``."""

    __slots__ = ()


@dataclass(slots=True)
class SendOp(Operation):
    """Blocking standard-mode send (``MPI_Send``)."""

    dest: int
    nbytes: int
    tag: int = 0
    kind: str = KIND_P2P


@dataclass(slots=True)
class IsendOp(Operation):
    """Non-blocking send (``MPI_Isend``); resumes with a :class:`Request`."""

    dest: int
    nbytes: int
    tag: int = 0
    kind: str = KIND_P2P


@dataclass(slots=True)
class RecvOp(Operation):
    """Blocking receive (``MPI_Recv``); resumes with a :class:`Status`."""

    source: int = ANY_SOURCE
    tag: int = ANY_TAG
    kind: str = KIND_P2P


@dataclass(slots=True)
class IrecvOp(Operation):
    """Non-blocking receive (``MPI_Irecv``); resumes with a :class:`Request`."""

    source: int = ANY_SOURCE
    tag: int = ANY_TAG
    kind: str = KIND_P2P


@dataclass(slots=True)
class WaitOp(Operation):
    """Wait for one request to complete (``MPI_Wait``)."""

    request: Request


@dataclass(slots=True)
class WaitallOp(Operation):
    """Wait for all requests to complete (``MPI_Waitall``)."""

    requests: Sequence[Request] = field(default_factory=list)


@dataclass(slots=True)
class ComputeOp(Operation):
    """Advance the rank's local clock by ``seconds`` of computation."""

    seconds: float


# ----------------------------------------------------------------------
# First-class collective operations
# ----------------------------------------------------------------------
class CollectiveOp(Operation):
    """Base class for first-class collective operations.

    A rank program yields one of these *instead of* driving the collective
    generator with ``yield from``: the engine (and the compiler's replay)
    expands it through :func:`repro.mpi.collectives.decomposition_for` into
    the identical point-to-point message sequence, so the two spellings are
    bit-identical by construction.  The ``tag`` is allocated eagerly by the
    :class:`repro.mpi.communicator.Communicator` factory methods from the
    same per-communicator sequence the generator methods use.

    Blocking collectives resume the program with ``None``; the nonblocking
    variants (:class:`IalltoallOp`, :class:`IallgatherOp`) resume with a
    :class:`repro.mpi.request.CollectiveRequest` to pass to ``wait`` /
    ``waitall`` later.
    """

    __slots__ = ()


@dataclass(slots=True)
class BcastOp(CollectiveOp):
    """Binomial-tree broadcast of ``nbytes`` from ``root`` (``MPI_Bcast``)."""

    nbytes: int
    root: int
    tag: int


@dataclass(slots=True)
class ReduceOp(CollectiveOp):
    """Reversed binomial-tree reduction to ``root`` (``MPI_Reduce``)."""

    nbytes: int
    root: int
    tag: int


@dataclass(slots=True)
class AllreduceOp(CollectiveOp):
    """Reduce-to-rank-0 plus broadcast (``MPI_Allreduce``)."""

    nbytes: int
    tag: int


@dataclass(slots=True)
class AllgatherOp(CollectiveOp):
    """Ring allgather of ``nbytes`` per rank (``MPI_Allgather``)."""

    nbytes: int
    tag: int


@dataclass(slots=True)
class GatherOp(CollectiveOp):
    """Flat fan-in gather of ``nbytes`` at ``root`` (``MPI_Gather``)."""

    nbytes: int
    root: int
    tag: int


@dataclass(slots=True)
class ScatterOp(CollectiveOp):
    """Flat fan-out scatter of ``nbytes`` from ``root`` (``MPI_Scatter``)."""

    nbytes: int
    root: int
    tag: int


@dataclass(slots=True)
class AlltoallOp(CollectiveOp):
    """Pairwise alltoall with a uniform per-pair payload (``MPI_Alltoall``)."""

    nbytes: int
    tag: int


@dataclass(slots=True)
class AlltoallvOp(CollectiveOp):
    """Pairwise alltoallv; ``send_bytes[d]`` goes to rank ``d`` (``MPI_Alltoallv``)."""

    send_bytes: tuple
    tag: int


@dataclass(slots=True)
class BarrierOp(CollectiveOp):
    """Dissemination barrier (``MPI_Barrier``)."""

    tag: int


@dataclass(slots=True)
class IalltoallOp(CollectiveOp):
    """Nonblocking alltoall (``MPI_Ialltoall``); resumes with a
    :class:`repro.mpi.request.CollectiveRequest`."""

    nbytes: int
    tag: int


@dataclass(slots=True)
class IallgatherOp(CollectiveOp):
    """Nonblocking allgather (``MPI_Iallgather``); resumes with a
    :class:`repro.mpi.request.CollectiveRequest`."""

    nbytes: int
    tag: int


# ----------------------------------------------------------------------
# Op-array encoding (the compiled fast lane)
# ----------------------------------------------------------------------

#: Advance the local clock; ``seconds`` holds the base time, ``a`` is 1 when
#: a compute-noise factor must be drawn and applied at execution time.
OP_COMPUTE = 0
#: Blocking send to rank ``a`` (``nbytes``/``tag``/``kind`` lanes apply).
OP_SEND = 1
#: Non-blocking send to rank ``a``; the request joins the pending list.
OP_ISEND = 2
#: Blocking receive from rank ``a`` (or ``ANY_SOURCE``).
OP_RECV = 3
#: Non-blocking receive from rank ``a``; the request joins the pending list.
OP_IRECV = 4
#: Wait for the ``a`` outstanding pending requests (always *all* of them —
#: partial waits lower to :data:`OP_WAIT` instead).
OP_WAITALL = 5
#: Wait for a *contiguous slice* of the pending list: entries
#: ``[a, a + nbytes)`` in posting order (``a`` = offset, ``nbytes`` = count).
#: The compiler emits this for waits on nonblocking-collective composites and
#: for partial waitalls whose request set is contiguous in posting order;
#: non-contiguous subsets stay on the generator path.
OP_WAIT = 6

# -- collective lowering codes (compiler IR, never present in runtime lanes) --
#: Collective operations have dedicated op codes so tools (and the DUMPI
#: importer) can name them, but the compiler *macro-expands* every collective
#: at compile time: its point-to-point decomposition is inlined into the flat
#: lanes as ordinary ``OP_SEND``/``OP_ISEND``/``OP_RECV``/``OP_IRECV``/
#: ``OP_WAITALL``/``OP_WAIT`` entries, identical to what the generator path
#: executes.  The engine therefore never sees these codes at runtime — which
#: is precisely what keeps the scalar, vectorised and parallel drains
#: bit-identical without collective-specific engine branches.
OP_BCAST = 16
OP_REDUCE = 17
OP_ALLREDUCE = 18
OP_ALLGATHER = 19
OP_GATHER = 20
OP_SCATTER = 21
OP_ALLTOALL = 22
OP_ALLTOALLV = 23
OP_BARRIER = 24
OP_IALLTOALL = 25
OP_IALLGATHER = 26

#: Operation class -> lowering code, e.g. for importers and debug dumps.
COLLECTIVE_OP_CODES = {
    "BcastOp": OP_BCAST,
    "ReduceOp": OP_REDUCE,
    "AllreduceOp": OP_ALLREDUCE,
    "AllgatherOp": OP_ALLGATHER,
    "GatherOp": OP_GATHER,
    "ScatterOp": OP_SCATTER,
    "AlltoallOp": OP_ALLTOALL,
    "AlltoallvOp": OP_ALLTOALLV,
    "BarrierOp": OP_BARRIER,
    "IalltoallOp": OP_IALLTOALL,
    "IallgatherOp": OP_IALLGATHER,
}


class OpArrays:
    """Flat typed lanes describing one rank's precompiled schedule.

    One entry per operation, in program order.  Instances are immutable once
    built and carry no per-run state, so a schedule can be shared between
    runs (see the cache in :mod:`repro.workloads.compile`).

    Like the typed event records of :mod:`repro.sim.events`, the lanes are
    plain Python lists rather than ``array('q')`` buffers: the engine reads
    a handful of lane slots per simulated op, and list indexing hands back
    the stored (shared, usually small) int objects directly where a typed
    buffer would box a fresh int per read.
    """

    __slots__ = ("op", "a", "nbytes", "tag", "seconds", "kind")

    def __init__(self) -> None:
        self.op: list[int] = []
        self.a: list[int] = []
        self.nbytes: list[int] = []
        self.tag: list[int] = []
        self.seconds: list[float] = []
        self.kind: list[str | None] = []

    def __len__(self) -> int:
        return len(self.op)


class CompiledProgram:
    """A precompiled rank program: shared op lanes plus per-run noise state.

    Returned (instead of a generator) by program factories that take the
    fast lane; the engine recognises it in
    :meth:`repro.sim.engine.Simulator.run` and drives the lanes directly.

    Compute-noise factors are *not* baked into the lanes: they are drawn at
    execution time from ``rng`` in blocks of ``noise_block`` — the exact
    draw pattern of :meth:`repro.workloads.base.Workload.compute` with the
    prefetch enabled — so a compiled run consumes the rank RNG stream
    bit-identically to the generator path.
    """

    __slots__ = ("lanes", "rng", "sigma", "noise_block", "_noise_iter")

    def __init__(self, lanes: OpArrays, rng, sigma: float, noise_block: int) -> None:
        self.lanes = lanes
        self.rng = rng
        self.sigma = float(sigma)
        self.noise_block = int(noise_block)
        self._noise_iter = iter(())

    def next_noise(self) -> float:
        """The next compute-noise factor (block-prefetched, like compute())."""
        try:
            return next(self._noise_iter)
        except StopIteration:
            self._noise_iter = fresh = iter(
                self.rng.lognormal_block(self.sigma, self.noise_block)
            )
            return next(fresh)
