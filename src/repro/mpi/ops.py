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

These seven classes are the whole protocol: a collective is not an
operation.  :mod:`repro.mpi.collectives` builds each one out of the ops above
and a program runs it with ``yield from``, which Python flattens, so the
engine and the compiler only ever see point-to-point ops, waits and computes.
Yielding anything else (a forgotten ``from`` yields a generator object) is a
:class:`repro.sim.errors.ProgramError`.

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
    "OP_COMPUTE",
    "OP_SEND",
    "OP_ISEND",
    "OP_RECV",
    "OP_IRECV",
    "OP_WAITALL",
    "OP_WAIT",
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

class OpArrays:
    """Flat typed lanes describing one rank's precompiled schedule.

    One entry per operation, in program order.  Instances carry no per-run
    state, so a schedule can be shared between runs (see the cache in
    :mod:`repro.workloads.compile`).  **A lane is never written after
    compile**: the cache hands one list object to every rank of a
    configuration whose ``op`` / ``nbytes`` / ``tag`` / ``seconds`` /
    ``kind`` lane is identical, so a write through one rank's lanes would
    change its neighbours' schedules too (``a``, the peer lane, is always
    the rank's own).

    Like the typed event records of :mod:`repro.sim.events`, the compiler
    builds every lane as a plain Python list: the engine reads a handful of
    lane slots per simulated op, and list indexing hands back the stored
    object.  In the cache the five shared lanes stay lists, but each rank's
    ``a`` lane is an ``array`` of the narrowest signed typecode that holds
    it (one or two bytes a slot where a list spends an eight-byte pointer).
    The engine indexes it the same way: a read of a value from -5 to 256 (a
    peer of a job of up to 257 ranks, ``ANY_SOURCE``, a wait count) returns
    CPython's cached small int; a larger peer costs one int allocation a
    read.
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
