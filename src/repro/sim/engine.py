"""The discrete-event simulation engine.

A *rank program* is produced by calling a program factory with a
:class:`repro.mpi.communicator.RankContext` and takes one of two forms:

* a Python **generator**: each value it yields is an MPI operation
  (:mod:`repro.mpi.ops`); the engine executes it against the runtime
  transport and resumes the generator with the operation's result once it
  completes in simulated time;
* a :class:`repro.mpi.ops.CompiledProgram`: the same operation sequence
  precompiled into flat typed op lanes (see :mod:`repro.workloads.compile`),
  which the engine drives through :meth:`Simulator._step_compiled` — one
  cursor advance and a few lane loads per op instead of a generator
  resumption, an operation allocation and argument validation.  Both forms
  produce bit-identical simulations; ranks of either form can mix freely in
  one run.

The engine owns the global event queue and each rank's local virtual clock.
Blocking operations suspend a rank until the transport completes the
corresponding request, unless it is complete as it is posted (an eager send,
a receive whose message is already buffered): then the rank just steps on at
the completion time.  Non-blocking operations resume the rank immediately
(after the CPU overhead of posting) and hand back a request handle that can
be waited on later.  If the event queue drains while some ranks are still
blocked, the simulation is deadlocked and :class:`repro.sim.errors.DeadlockError`
is raised, listing the stuck ranks and the call each is blocked in — the same
failure a real MPI job would hang on.

Batched event architecture
--------------------------
The engine is the end-to-end bottleneck once the predictor hot path is
amortised (see ROADMAP "Perf trajectory"), so its dispatch pipeline avoids
per-event allocation entirely:

* The event queue (:mod:`repro.sim.events`) holds flat *typed records*
  instead of closures.  Rank resumptions are ``EVENT_STEP`` records and
  payload arrivals are ``EVENT_DELIVER`` records; only rare control traffic
  (rendezvous RTS/CTS) uses the generic callback lane.
* Operations yielded by generator programs are dispatched through a
  per-op-type *handler table* (``type(op) -> bound handler``) instead of an
  ``isinstance`` chain; compiled programs skip operation objects entirely
  and decode each op from their lanes.
* One run loop (:meth:`Simulator._run_loop`) pops records one at a time off
  the queue's single heap, with the pop/peek logic inlined.  Every
  consecutive same-timestamp run of deliveries goes to the transport in a single
  :meth:`repro.runtime.transport.Transport.deliver_cohort` call, which feeds
  the online predictive policies one burst per receiver
  (:meth:`repro.runtime.protocol.FlowControlPolicy.on_burst_delivered`).
* With *cohorting* on (``engine="vectorised"``, or ``"auto"`` from
  ``_VECTOR_MIN_RANKS`` compiled ranks), a consecutive same-timestamp run of
  compiled-rank steps is collected into a cohort and executed segment by
  segment through the ``_vec_*`` handlers: one batch event record per
  segment, and one transport burst call for a segment of isends.  With cohorting off (``engine="scalar"``)
  the same loop hands each step straight to :meth:`Simulator._step_compiled`.

Determinism is unchanged: every event still executes in exact global
``(time, seq)`` order, so simulation outputs are bit-identical with
cohorting on or off, and to the closure-per-event engine.
"""

from __future__ import annotations

import gc
import os
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop as _heappop, heappush as _heappush
from time import monotonic as _monotonic
from typing import Callable, Generator, Sequence

from repro.mpi.communicator import Communicator, RankContext
from repro.mpi.ops import (
    OP_COMPUTE,
    OP_IRECV,
    OP_ISEND,
    OP_RECV,
    OP_SEND,
    OP_WAIT,
    OP_WAITALL,
    CompiledProgram,
    ComputeOp,
    IrecvOp,
    IsendOp,
    Operation,
    RecvOp,
    SendOp,
    WaitallOp,
    WaitOp,
)
from repro.mpi.request import Request
from repro.runtime.stats import RuntimeStats
from repro.runtime.transport import Transport
from repro.sim.errors import (
    DeadlockError,
    ProgramError,
    SimulationError,
    TimeLimitExceeded,
    deadlock_detail,
)
from repro.sim.faults import FaultConfig, FaultInjector
from repro.sim.events import (
    EV_A,
    EV_B,
    EV_KIND,
    EV_TIME,
    EVENT_CALLBACK,
    EVENT_DELIVER,
    EVENT_DELIVER_BATCH,
    EVENT_STEP,
    EVENT_STEP_BATCH,
    EventQueue,
)
from repro.sim.machine import MachineConfig
from repro.sim.network import NetworkConfig, NetworkModel
from repro.trace.tracer import TwoLevelTracer
from repro.util.registry import ENGINES
from repro.util.rng import SeededRNG

__all__ = ["Simulator", "SimulationResult", "RankState", "RankStatus"]

#: A program factory takes a rank context and returns the rank's generator.
ProgramFactory = Callable[[RankContext], Generator[Operation, object, None]]

#: ``engine="auto"`` turns cohorting on at this many compiled ranks.  Below
#: it, cohorts are too small for the collect/dispatch overhead to amortise.
#: At 256 ranks, with the run loop peeking before it starts a cohort, the
#: traced probe ``sim.auto_vs_scalar`` (scalar over auto run time, read by
#: ``bench/run.py --workload W --trace 1``) read 2.42 / 1.71 / 2.64x on
#: ``sim-lockstep-bt`` (wide cohorts) and 1.02 / 1.07 / 0.95x on
#: ``sim-wavefront-lu`` (a lone step builds no cohort), three runs each on a
#: 2-CPU host: the batch lane wins where cohorts are wide, parity elsewhere.
_VECTOR_MIN_RANKS = 16

#: Minimum cohort size worth routing through ``_exec_cohort``; smaller
#: cohorts run the scalar ``_step_compiled`` path directly.
_VECTOR_MIN_COHORT = 4


class RankStatus(Enum):
    """Lifecycle state of one simulated rank."""

    READY = "ready"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"


#: Module-level aliases: enum member lookup is an attribute access on every
#: step, and the engine touches these on the hottest path.
_READY = RankStatus.READY
_BLOCKED = RankStatus.BLOCKED
_DONE = RankStatus.DONE
_FAILED = RankStatus.FAILED


@dataclass(slots=True)
class RankState:
    """Book-keeping for one simulated rank.

    A rank runs in one of two modes, fixed at :meth:`Simulator.run` time:
    the generator protocol (``resume_fn`` set, ``compiled`` None) or the
    op-array fast lane (``compiled`` set and the ``cp_*`` fields holding the
    schedule lanes plus the execution cursor).
    """

    rank: int
    now: float = 0.0
    status: RankStatus = RankStatus.READY
    #: The blocking call a BLOCKED rank sits in ("send", "recv", "wait",
    #: "waitall"); a :class:`DeadlockError` reports it per stuck rank.
    blocked_on: str = ""
    #: The program generator's bound ``send`` (set by :meth:`Simulator.run`;
    #: it is also what keeps the generator alive), or None in compiled mode.
    resume_fn: Callable | None = None
    #: The rank's :class:`CompiledProgram`, or None in generator mode.
    compiled: CompiledProgram | None = None
    #: Next op index in the compiled lanes.
    cp_cursor: int = 0
    #: Requests of outstanding non-blocking compiled ops, in issue order.
    cp_pending: list | None = None
    # The individual schedule lanes, unpacked here so the per-op decode in
    # ``_step_compiled`` is a single attribute load per lane.
    cp_len: int = 0
    cp_op: object = None
    cp_a: object = None
    cp_nbytes: object = None
    cp_tag: object = None
    cp_seconds: object = None
    cp_kind: object = None


@dataclass
class SimulationResult:
    """Everything a finished simulation exposes to the analysis layer."""

    nprocs: int
    makespan: float
    rank_finish_times: list[float]
    events_processed: int
    stats: RuntimeStats
    tracer: TwoLevelTracer | None
    buffer_stats: list = field(default_factory=list)
    #: Fault-injection accounting (:meth:`FaultInjector.counters`), or None
    #: when the run had no active fault models.
    fault_stats: dict | None = None
    #: Parallel-engine diagnostics: ``{"partitions": k, "windows": n,
    #: "lookahead": s, "engine_jobs": j}`` when the run was partitioned
    #: across worker processes, ``{"fallback": reason, "engine_jobs": j}``
    #: when ``engine="parallel"`` was requested but the configuration was
    #: ineligible (the run then executed in-process, bit-identically), and
    #: None for non-parallel engines.  ``engine_jobs`` is the *resolved*
    #: worker count — ``engine_jobs=0`` auto-tunes to ``os.cpu_count()``.
    parallel_info: dict | None = None

    def trace_for(self, rank: int):
        """Convenience accessor for one rank's :class:`ProcessTrace`."""
        if self.tracer is None:
            raise SimulationError("simulation was run without a tracer")
        return self.tracer.trace_for(rank)


def _result_first_status(requests: list[Request]):
    return requests[0].status


def _result_all_statuses(requests: list[Request]) -> list:
    return [r.status for r in requests]


class Simulator:
    """Drives a set of rank programs over the runtime transport.

    Parameters
    ----------
    nprocs:
        Number of ranks in the job.
    machine:
        Per-node cost model (defaults to :class:`MachineConfig`).
    network:
        Either a :class:`NetworkModel` or a :class:`NetworkConfig` (a model is
        built from it); defaults to the standard jittered network.
    tracer:
        A :class:`TwoLevelTracer`, or True to create one, or None/False for no
        tracing.
    policy:
        Flow-control policy forwarded to the transport.
    seed:
        Base seed for per-rank RNGs handed to the programs (compute-time noise
        in the workload skeletons).
    max_events:
        Safety limit on processed events; exceeding it raises
        :class:`SimulationError` (guards against runaway programs).
    max_wall_seconds:
        Safety limit on *real* elapsed time for :meth:`run`; exceeding it
        raises :class:`SimulationError`.  Complements ``max_events`` (which
        bounds work) and :class:`DeadlockError` (which catches drained-queue
        hangs): this one catches livelocked or pathologically slow runs that
        keep producing events.
    faults:
        Optional fault injection: a :class:`FaultConfig` (an injector is
        built from it, seeded from the run seed unless the config pins one)
        or a pre-built :class:`FaultInjector`.  A null config (all rates
        zero) is ignored entirely, so the run is bit-identical to passing
        ``None``.
    engine:
        Whether the run loop batches timestamp cohorts: ``"scalar"`` steps
        every rank on its own, ``"vectorised"`` collects same-timestamp
        cohorts of compiled ranks and executes them in batches (generator
        ranks always step on their own), and ``"auto"`` (the default) batches
        when at least ``_VECTOR_MIN_RANKS`` ranks are compiled.  Either way
        the simulation is **bit-identical** — traces, stats, event counts and
        fault counters; the knob only trades constant factors.

        ``"parallel"`` partitions the ranks across ``engine_jobs`` worker
        processes synchronised in conservative windows of width
        ``network.min_latency()`` (see :mod:`repro.sim.partition`).  Outputs
        are bit-identical to the in-process drains.  Configurations the
        conservative protocol cannot partition safely — zero minimum
        latency, jittered/contended network models, flow-control
        policies whose eager decisions read receiver state, generator
        ranks — transparently fall back to the in-process ``"auto"``
        selection, recording the reason in
        :attr:`SimulationResult.parallel_info`.
    engine_jobs:
        Number of worker processes for ``engine="parallel"`` (ignored by the
        other engines).  ``0`` auto-tunes to ``os.cpu_count()``; resolved
        values below 2 fall back to in-process execution.

    A ``Simulator`` instance is **single-use**: :meth:`run` consumes the
    event queue, transport matching state and jitter RNG streams, so a second
    call raises :class:`SimulationError` instead of silently reusing stale
    state.  Build a fresh instance (or a fresh
    :class:`repro.scenario.Scenario`) per simulation.
    """

    def __init__(
        self,
        nprocs: int,
        machine: MachineConfig | None = None,
        network: NetworkModel | NetworkConfig | None = None,
        tracer: TwoLevelTracer | bool | None = True,
        policy=None,
        seed: int = 12345,
        max_events: int | None = None,
        max_wall_seconds: float | None = None,
        faults: FaultConfig | FaultInjector | None = None,
        engine: str = "auto",
        engine_jobs: int = 2,
    ) -> None:
        if nprocs <= 0:
            raise ValueError(f"nprocs must be positive, got {nprocs}")
        if engine not in ENGINES:
            message = "engine must be {!r}, {!r}, {!r} or {!r}, got {!r}"
            raise ValueError(message.format(*ENGINES, engine))
        if engine_jobs == 0:
            # Auto-tune: one partition per available core.
            engine_jobs = os.cpu_count() or 1
        if engine_jobs < 0:
            raise ValueError(
                f"engine_jobs must be positive (or 0 for auto), got {engine_jobs}"
            )
        self.engine = engine
        self.engine_jobs = engine_jobs
        #: See :attr:`SimulationResult.parallel_info`.
        self.parallel_info: dict | None = None
        self.nprocs = nprocs
        self.machine = machine or MachineConfig()
        if network is None:
            network = NetworkConfig(seed=seed)
        if isinstance(network, NetworkConfig):
            if network.seed is None:
                # A configuration without a pinned seed follows the run seed,
                # exactly like the default configuration built above — so
                # `NetworkConfig(jitter_sigma=...)` and `NetworkConfig()` both
                # derive their jitter stream from `seed`.
                network = network.with_overrides(seed=seed)
            network = NetworkModel(network)
        self.network = network
        if tracer is True:
            tracer = TwoLevelTracer(nprocs)
        elif tracer is False:
            tracer = None
        self.tracer = tracer
        self.seed = seed
        self.max_events = max_events
        self.max_wall_seconds = max_wall_seconds
        if isinstance(faults, FaultConfig):
            faults = None if faults.is_null else FaultInjector(faults, seed)
        self.faults = faults
        if faults is not None:
            self.network.attach_faults(faults)
        # Bound stall hook, or None: checked once per compute phase, so the
        # fault-free hot path pays a single identity test.
        self._fault_stall = (
            faults.stall if faults is not None and faults.stall_active else None
        )
        self.transport = Transport(
            nprocs=nprocs,
            machine=self.machine,
            network=self.network,
            tracer=self.tracer,
            policy=policy,
            faults=faults,
        )
        self.transport.attach(self)
        self._queue = EventQueue()
        self._push_typed = self._queue.push_typed
        # Finished blocking-op requests skip release_request's completion check.
        self._release = self.transport._request_pool.append
        self._ranks: list[RankState] = []
        self.time = 0.0
        self._done_count = 0
        self._started = False
        # Whether the run loop collects compiled-rank step cohorts; decided
        # in run() from ``engine`` and the number of compiled ranks.
        self._cohorting = False
        #: Number of cohorts executed through the vectorised lane (0 with
        #: cohorting off); exposed for tests and benchmarks.
        self.vector_cohorts = 0
        self._op_table = {
            ComputeOp: self._op_compute,
            SendOp: self._op_send,
            IsendOp: self._op_isend,
            RecvOp: self._op_recv,
            IrecvOp: self._op_irecv,
            WaitOp: self._op_wait,
            WaitallOp: self._op_waitall,
        }

    # ------------------------------------------------------------------
    # Scheduling interface (also used by the transport)
    # ------------------------------------------------------------------
    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        self._push_typed(
            time if time > self.time else self.time, EVENT_CALLBACK, callback
        )

    def schedule_step(self, time: float, state: RankState, value: object) -> None:
        """Schedule the resumption of ``state``'s generator with ``value``."""
        self._push_typed(
            time if time > self.time else self.time, EVENT_STEP, state, value
        )

    def schedule_delivery(self, time: float, message, posted) -> None:
        """Schedule the physical arrival of ``message`` at its destination."""
        # Inline of EventQueue.push_typed: one call per message, not two.
        if time < self.time:
            time = self.time
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        _heappush(queue._heap, [time, seq, EVENT_DELIVER, message, posted])

    def schedule_delivery_batch(self, time: float, items) -> None:
        """Schedule ``len(items)`` simultaneous arrivals as one batch record.

        ``items`` holds ``(message, posted)`` pairs.  Sequence numbering and
        event accounting are identical to ``len(items)`` consecutive
        :meth:`schedule_delivery` calls (see
        :meth:`repro.sim.events.EventQueue.push_deliver_batch`).
        """
        self._queue.push_deliver_batch(
            time if time > self.time else self.time, items
        )

    # ------------------------------------------------------------------
    # Running programs
    # ------------------------------------------------------------------
    def run(self, programs: Sequence[ProgramFactory]) -> SimulationResult:
        """Run one program factory per rank to completion.

        ``programs`` may contain a single factory (used for every rank, the
        SPMD style of all the paper's benchmarks) or exactly ``nprocs``
        factories.
        """
        if self._started:
            raise SimulationError(
                "Simulator instances are single-use: run() was already called "
                "and the event queue, transport and RNG state have been "
                "consumed; create a fresh Simulator (or a fresh "
                "repro.scenario.Scenario) for another simulation"
            )
        if len(programs) == 1:
            programs = list(programs) * self.nprocs
        if len(programs) != self.nprocs:
            raise ValueError(
                f"expected 1 or {self.nprocs} program factories, got {len(programs)}"
            )
        # Mark consumed only after argument validation: a bad ``programs``
        # list must not brick the instance with a misleading single-use error.
        self._started = True

        self._ranks = []
        for rank, factory in enumerate(programs):
            ctx = RankContext(
                rank=rank,
                size=self.nprocs,
                comm=Communicator(rank=rank, size=self.nprocs),
                rng=SeededRNG(self.seed, "rank", rank),
            )
            program = factory(ctx)
            if isinstance(program, CompiledProgram):
                # Op-array fast lane: unpack the schedule lanes onto the
                # state so the per-op decode is one attribute load per lane.
                state = RankState(rank=rank, compiled=program)
                lanes = program.lanes
                state.cp_len = len(lanes.op)
                state.cp_op = lanes.op
                state.cp_a = lanes.a
                state.cp_nbytes = lanes.nbytes
                state.cp_tag = lanes.tag
                state.cp_seconds = lanes.seconds
                state.cp_kind = lanes.kind
                state.cp_pending = []
            elif hasattr(program, "send"):
                state = RankState(rank=rank, resume_fn=program.send)
            else:
                raise ProgramError(
                    f"program factory for rank {rank} returned neither a "
                    f"generator nor a CompiledProgram: {program!r}"
                )
            self._ranks.append(state)

        if self.engine == "parallel":
            reason = self._parallel_fallback_reason()
            if reason is None:
                from repro.sim.partition import run_partitioned

                # Eligibility means every rank is compiled; each partition
                # worker drains its windows with cohorting on.
                self._cohorting = True
                return run_partitioned(self)
            # Ineligible configuration: run in-process (bit-identical by
            # construction) and record why the partitioned path disengaged,
            # plus the resolved worker count (auto-tuned when 0 was passed).
            self.parallel_info = {"fallback": reason, "engine_jobs": self.engine_jobs}

        self._done_count = 0
        for state in self._ranks:
            self.schedule_step(0.0, state, None)

        compiled_count = sum(1 for s in self._ranks if s.compiled is not None)
        self._cohorting = compiled_count > 0 and (
            self.engine == "vectorised"
            or (
                self.engine in ("auto", "parallel")
                and compiled_count >= _VECTOR_MIN_RANKS
            )
        )

        # The run allocates ~15 short-lived objects per simulated message and
        # creates no reference cycles of its own; pausing the cyclic collector
        # avoids hundreds of pointless young-generation scans.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self._run_loop()
        finally:
            if gc_was_enabled:
                gc.enable()

        if self._done_count != self.nprocs:
            stuck = [s for s in self._ranks if s.status is RankStatus.BLOCKED]
            detail = deadlock_detail(
                {s.rank: s.blocked_on for s in stuck}, self.transport.pending_counts()
            )
            raise DeadlockError([s.rank for s in stuck], detail)

        if self.tracer is not None:
            self.tracer.finalize()
        return SimulationResult(
            nprocs=self.nprocs,
            makespan=max((s.now for s in self._ranks), default=0.0),
            rank_finish_times=[s.now for s in self._ranks],
            events_processed=self._queue.events_processed,
            stats=self.transport.stats,
            tracer=self.tracer,
            buffer_stats=self.transport.buffer_stats(),
            fault_stats=self.faults.counters() if self.faults is not None else None,
            parallel_info=self.parallel_info,
        )

    def _parallel_fallback_reason(self) -> str | None:
        """Why ``engine="parallel"`` cannot partition this run (None = it can).

        The conservative protocol requires a positive lookahead (the minimum
        network latency), a partition-safe network (no jitter or contention —
        their shared RNG/state draws are ordered by the global event
        sequence, which no partition sees), a partition-safe
        flow-control policy (eager decisions must not read receiver-side
        state across the partition boundary), compiled rank programs (the
        windowed drain cohorts compiled lanes) and a ``fork`` start method
        (workers inherit the fully-built simulator by address).
        """
        if self.engine_jobs < 2:
            return "engine_jobs < 2"
        if self.nprocs < self.engine_jobs:
            return f"fewer ranks ({self.nprocs}) than partitions ({self.engine_jobs})"
        if any(s.compiled is None for s in self._ranks):
            return "generator rank programs (windowed drain needs compiled lanes)"
        if self.network.min_latency() <= 0.0:
            return "zero minimum network latency (no conservative lookahead)"
        if not self.network.partition_safe:
            return "network model draws shared jitter/contention/drop state"
        if not getattr(self.transport.policy, "partition_safe", False):
            return (
                f"flow-control policy {type(self.transport.policy).__name__} "
                "reads receiver state on the send path"
            )
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            return "fork start method unavailable on this platform"
        return None

    def _run_loop(self, until: float | None = None) -> None:
        """Drain the event queue in ``(time, seq)`` order.

        The pop/peek logic of :meth:`EventQueue.pop` /
        :meth:`EventQueue.peek_record` is inlined here (mirroring those
        methods exactly, counters included): this loop runs once per simulated
        event and the method-call overhead alone is measurable.

        A consecutive same-timestamp run of deliveries is collected and
        handed to one :meth:`Transport.deliver_cohort` call.  With cohorting
        on, a run of *consecutive* same-timestamp step records for compiled
        ranks (and any ``EVENT_STEP_BATCH`` records, which only cohort
        execution creates) is likewise collected into a cohort and handed to
        :meth:`_exec_cohort`, which executes same-op segments in one pass
        and pushes one batch record per segment.  Consecutiveness
        is what preserves global ``(time, seq)`` order: collection stops at
        the first record of any other kind, so nothing is ever reordered
        across a delivery, callback or generator-rank step.  A compiled step
        starts a cohort only when the record behind it is a same-time
        compiled step: the loop peeks first, so a lone step (the rule on a
        wavefront) builds no cohort.  Lone steps, cohorts below
        ``_VECTOR_MIN_COHORT`` and, with cohorting off, every compiled step
        go to :meth:`_step_compiled` per rank.

        ``until`` bounds one conservative window of the parallel engine: the
        loop returns as soon as the next event lies at or beyond it
        (leaving that event queued), so a partition drains exactly the
        events with ``time < until``.  ``None`` (every in-process run)
        drains to an empty queue.
        """
        queue = self._queue
        heap = queue._heap
        heappop = _heappop
        deliver_cohort = self.transport.deliver_cohort
        max_events = self.max_events
        wall_deadline = (
            _monotonic() + self.max_wall_seconds
            if self.max_wall_seconds is not None
            else None
        )
        # A batch record advances ``_popped`` by its length, so the clock is
        # read whenever the count has *passed* the next multiple of 1024.
        next_wall_check = queue._popped + 1024
        step = self._step
        step_compiled = self._step_compiled
        exec_cohort = self._exec_cohort
        cohorting = self._cohorting
        min_cohort = _VECTOR_MIN_COHORT
        cohort = None
        current = self.time
        while True:
            # Window bound (parallel engine): stop before popping anything
            # at/after ``until``.
            if not heap or (until is not None and heap[0][EV_TIME] >= until):
                return
            # -- inline EventQueue.pop (batch-aware) --------------------
            record = heappop(heap)
            kind = record[EV_KIND]
            if kind >= EVENT_STEP_BATCH:  # the two batch kinds
                queue._popped += len(record[EV_A])
            else:
                queue._popped += 1
            time = record[EV_TIME]
            # ----------------------------------------------------------
            if time > current:
                self.time = current = time
            elif time < current - 1e-9:
                raise SimulationError(
                    f"time went backwards: event at {time} after {current}"
                )
            if kind == EVENT_STEP:
                state = record[EV_A]
                if state.compiled is None:
                    step(state, record[EV_B])
                elif cohorting and heap and heap[0][EV_TIME] == time and (
                    heap[0][EV_KIND] == EVENT_STEP_BATCH
                    or heap[0][EV_KIND] == EVENT_STEP
                    and heap[0][EV_A].compiled is not None
                ):
                    cohort = [state]
                else:
                    step_compiled(state)
            elif kind == EVENT_DELIVER or kind == EVENT_DELIVER_BATCH:
                # Collect the whole consecutive same-time run of deliveries —
                # any destination, batch records inlined — then hand the run
                # to one deliver_cohort call, which processes the messages
                # in exactly this order.  Deliveries never push records that
                # could sort before the remaining delivery records (anything
                # pushed at this timestamp gets a later sequence number), so
                # collecting the run up front preserves the one-record-at-a-
                # time execution order.
                if kind == EVENT_DELIVER:
                    items = [(record[EV_A], record[EV_B])]
                else:
                    items = record[EV_A]
                while heap:
                    nxt = heap[0]
                    if nxt[EV_TIME] != time:
                        break
                    nk = nxt[EV_KIND]
                    if nk == EVENT_DELIVER:
                        items.append((nxt[EV_A], nxt[EV_B]))
                        queue._popped += 1
                    elif nk == EVENT_DELIVER_BATCH:
                        items.extend(nxt[EV_A])
                        queue._popped += len(nxt[EV_A])
                    else:
                        break
                    heappop(heap)
                deliver_cohort(items, time)
            elif kind == EVENT_STEP_BATCH:
                cohort = list(record[EV_A])
            else:
                record[EV_A]()
            if cohort is not None:
                # Extend the cohort with the consecutive run of same-time
                # compiled step (or batch) records behind the one just
                # popped.  The pop below mirrors EventQueue.pop for the
                # record peeked at.
                while heap:
                    nxt = heap[0]
                    if nxt[EV_TIME] != time:
                        break
                    nk = nxt[EV_KIND]
                    if nk == EVENT_STEP:
                        s = nxt[EV_A]
                        if s.compiled is None:
                            break
                        cohort.append(s)
                        queue._popped += 1
                    elif nk == EVENT_STEP_BATCH:
                        cohort.extend(nxt[EV_A])
                        queue._popped += len(nxt[EV_A])
                    else:
                        break
                    heappop(heap)
                if len(cohort) >= min_cohort:
                    exec_cohort(cohort)
                else:
                    for s in cohort:
                        step_compiled(s)
                cohort = None
            if max_events is not None and queue._popped > max_events:
                raise SimulationError(
                    f"exceeded max_events={self.max_events}; "
                    "the workload is larger than expected or the simulation is livelocked"
                )
            if wall_deadline is not None and queue._popped >= next_wall_check:
                next_wall_check += 1024
                if _monotonic() > wall_deadline:
                    raise TimeLimitExceeded(
                        f"exceeded max_wall_seconds={self.max_wall_seconds:g}; "
                        "the simulation is livelocked or far larger than expected"
                    )

    # ------------------------------------------------------------------
    # Cohort execution (batching over compiled op lanes)
    # ------------------------------------------------------------------
    def _exec_cohort(self, states: list[RankState]) -> None:
        """Execute one timestamp cohort of compiled-rank steps, batched.

        The cohort is walked in popped (``seq``) order and split into runs of
        consecutive states whose next op has the same code; each vectorisable
        run (compute without a stall fault, isend, irecv) executes through
        one batch handler, everything else falls back to per-rank
        :meth:`_step_compiled`.  Segment-by-segment execution in cohort order
        makes every side effect — transport calls, RNG draws, event pushes —
        happen in exactly the order of stepping the ranks one by one, so
        outputs stay bit-identical.

        Reading every state's cursor up front (before any segment executes)
        is safe: cohort members are READY, so no segment's transport activity
        can complete a blocked wait and move another member's cursor.
        """
        self.vector_cohorts += 1
        step_compiled = self._step_compiled
        segments = []
        seg = None
        seg_code = -1
        for s in states:
            if s.status is _DONE:
                raise SimulationError(f"rank {s.rank} stepped after completion")
            i = s.cp_cursor
            if i >= s.cp_len:
                # Past the last op: the generator path's StopIteration.
                # (Retiring a rank pushes nothing, so it never splits a
                # segment.)
                s.status = _DONE
                self._done_count += 1
                continue
            code = s.cp_op[i]
            if seg is not None and code == seg_code:
                seg.append(s)
            else:
                seg = [s]
                seg_code = code
                segments.append((code, seg))
        fault_stall = self._fault_stall
        for code, seg in segments:
            if len(seg) < 2:
                step_compiled(seg[0])
            elif code == OP_COMPUTE and fault_stall is None:
                self._vec_compute(seg)
            elif code == OP_ISEND:
                self._vec_isend(seg)
            elif code == OP_IRECV:
                self._vec_irecv(seg)
            elif code == OP_WAITALL:
                self._vec_waitall(seg)
            else:
                for s in seg:
                    step_compiled(s)

    def _push_segment_steps(self, seg: list[RankState], times: list[float]) -> None:
        """Push the next-step records for an executed segment.

        When every state steps again at the same timestamp (the common case
        in lockstep phases), one ``EVENT_STEP_BATCH`` record stands in for
        the whole segment — the sequence counter still advances by the
        segment size, so later pushes sort after the batch exactly as they
        would after the individual records.  Otherwise the records are pushed
        individually in segment order, mirroring ``EventQueue.push_typed``
        like every other inlined push in this module.
        """
        queue = self._queue
        n = len(times)
        t0 = times[0]
        batch = True
        for j in range(1, n):
            if times[j] != t0:
                batch = False
                break
        heap = queue._heap
        if batch:
            seq = queue._seq
            queue._seq = seq + n
            _heappush(heap, [t0, seq, EVENT_STEP_BATCH, seg, None])
            return
        for j, s in enumerate(seg):
            seq = queue._seq
            queue._seq = seq + 1
            _heappush(heap, [times[j], seq, EVENT_STEP, s, None])

    def _vec_compute(self, seg: list[RankState]) -> None:
        """Advance a segment of compute ops and push one batched step record.

        Per rank this is the scalar compute branch without a stall fault
        (``_exec_cohort`` routes stalled runs to :meth:`_step_compiled`):
        noise factors are drawn in segment order, which is rank stream order.
        """
        sim_time = self.time
        times = []
        append = times.append
        for s in seg:
            i = s.cp_cursor
            s.cp_cursor = i + 1
            seconds = s.cp_seconds[i]
            if s.cp_a[i]:
                seconds *= s.compiled.next_noise()
            s.now = t = s.now + seconds
            append(t if t > sim_time else sim_time)
        self._push_segment_steps(seg, times)

    def _vec_isend(self, seg: list[RankState]) -> None:
        """Post a segment of isends through one transport burst call."""
        ranks = []
        dsts = []
        nbytes_list = []
        tags = []
        kinds = []
        nows = []
        for s in seg:
            i = s.cp_cursor
            ranks.append(s.rank)
            dsts.append(s.cp_a[i])
            nbytes_list.append(s.cp_nbytes[i])
            tags.append(s.cp_tag[i])
            kinds.append(s.cp_kind[i])
            nows.append(s.now)
        requests = self.transport.post_send_burst(
            ranks, dsts, nbytes_list, tags, kinds, nows
        )
        send_overhead = self.machine.send_overhead
        sim_time = self.time
        times = []
        append = times.append
        for j, s in enumerate(seg):
            s.cp_cursor += 1
            s.cp_pending.append(requests[j])
            s.now = t = s.now + send_overhead
            append(t if t > sim_time else sim_time)
        self._push_segment_steps(seg, times)

    def _vec_irecv(self, seg: list[RankState]) -> None:
        """Post a segment of irecvs and push one batched step record."""
        post_recv = self.transport.post_recv_values
        sim_time = self.time
        times = []
        append = times.append
        for s in seg:
            i = s.cp_cursor
            s.cp_cursor = i + 1
            s.cp_pending.append(
                post_recv(s.rank, s.cp_a[i], s.cp_tag[i], s.cp_kind[i], s.now)
            )
            t = s.now
            append(t if t > sim_time else sim_time)
        self._push_segment_steps(seg, times)

    def _vec_waitall(self, seg: list[RankState]) -> None:
        """Retire a segment of waitall ops whose requests have all completed.

        The scalar waitall branch routes through :meth:`_block_on` /
        :meth:`_resume` even when nothing is pending, paying a per-rank
        resume-record push.  Here the already-complete ranks (the common case
        once a delivery burst has drained before the waitall cohort) take the
        resume bookkeeping inline — same clock advance, same freelist release
        order, same ``None`` step value — and share one batched record push.
        Ranks with requests still in flight fall back to the exact scalar
        call, which pushes nothing now, so the records of the completed ranks
        keep the same relative sequence order per-rank stepping would produce.
        """
        # Every request released below was just verified complete, so it goes
        # back to the freelist directly — release_request's guard would only
        # re-check that — in the order release_request would append.
        release = self.transport._request_pool.append
        sim_time = self.time
        batch: list[RankState] = []
        times: list[float] = []
        for s in seg:
            s.cp_cursor += 1
            requests = s.cp_pending
            s.cp_pending = []
            complete = True
            for r in requests:
                if not r.completed:
                    complete = False
                    break
            if not complete:
                self._block_on(s, requests, "waitall")
                continue
            completion = s.now
            for r in requests:
                ct = r.completion_time
                if ct > completion:
                    completion = ct
            s.now = completion
            for r in requests:
                release(r)
            batch.append(s)
            times.append(completion if completion > sim_time else sim_time)
        if batch:
            self._push_segment_steps(batch, times)

    # ------------------------------------------------------------------
    # Rank stepping
    # ------------------------------------------------------------------
    def _step(self, state: RankState, value: object) -> None:
        """Resume one rank's generator with ``value`` and dispatch its next op.

        ``state.status`` is already READY here: ranks start READY, stay READY
        across non-blocking resumptions, and :meth:`_wake` / :meth:`_resume`
        restore READY when a blocking operation completes.

        Collectives arrive flattened by ``yield from``, so the op is one of
        the seven classes in ``_op_table`` or the program is in error.
        """
        if state.status is _DONE:
            raise SimulationError(f"rank {state.rank} stepped after completion")
        try:
            operation = state.resume_fn(value)
        except StopIteration:
            state.status = _DONE
            self._done_count += 1
            return
        except Exception:
            state.status = _FAILED
            raise
        handler = self._op_table.get(operation.__class__)
        if handler is None:
            what = "an unsupported operation"
            if hasattr(operation, "send"):
                what = "a generator (write 'yield from' to run a collective or sendrecv)"
            raise ProgramError(f"rank {state.rank} yielded {what}: {operation!r}")
        handler(state, operation)

    def _step_compiled(self, state: RankState) -> None:
        """Execute the next op of a compiled (op-array) rank program.

        One op per step event, exactly like the generator path executes one
        yielded operation per resumption: the compiled lane changes *how* an
        op is decoded (lane loads instead of a generator resumption, an
        operation allocation and communicator validation), never *when* it
        executes, so event counts, timings and transport call order — and
        therefore all simulation outputs — are bit-identical.  Lane values
        were validated at compile time and are trusted here.

        A blocking send or receive that is complete as it is posted (an eager
        send takes no request at all) advances the clock, releases its
        request and pushes the next step here; one that must wait suspends
        through :meth:`_suspend`.  The inlined event pushes mirror
        ``EventQueue.push_typed`` exactly, as in the generator-path handlers.
        """
        if state.status is _DONE:
            raise SimulationError(f"rank {state.rank} stepped after completion")
        i = state.cp_cursor
        if i >= state.cp_len:
            # Past the last op: the generator path's StopIteration.
            state.status = _DONE
            self._done_count += 1
            return
        state.cp_cursor = i + 1
        code = state.cp_op[i]
        # Every op done as it is posted falls through to one shared
        # next-step push below; an op that must wait returns out of its
        # branch after suspending the rank.
        if code == OP_COMPUTE:
            seconds = state.cp_seconds[i]
            if state.cp_a[i]:
                seconds *= state.compiled.next_noise()
            if self._fault_stall is not None:
                seconds += self._fault_stall(state.rank)
            state.now = time = state.now + seconds
        elif code == OP_IRECV:
            request = self.transport.post_recv_values(
                state.rank, state.cp_a[i], state.cp_tag[i], state.cp_kind[i], state.now
            )
            state.cp_pending.append(request)
            time = state.now
        elif code == OP_ISEND:
            request = self.transport.post_send_values(
                state.rank,
                state.cp_a[i],
                state.cp_nbytes[i],
                state.cp_tag[i],
                state.cp_kind[i],
                state.now,
            )
            state.cp_pending.append(request)
            state.now = time = state.now + self.machine.send_overhead
        elif code == OP_WAITALL:
            # Compiled pending requests never escape to a program, so unlike
            # the generator path's waitall they can all be recycled.
            requests = state.cp_pending
            state.cp_pending = []
            self._block_on(state, requests, "waitall")
            return
        elif code == OP_WAIT:
            # Wait for a contiguous slice of the pending list (offset in the
            # ``a`` lane, count in the ``nbytes`` lane): how the compiler
            # lowers nonblocking-collective composites and partial waitalls.
            offset = state.cp_a[i]
            stop = offset + state.cp_nbytes[i]
            pending = state.cp_pending
            requests = pending[offset:stop]
            del pending[offset:stop]
            self._block_on(state, requests, "wait")
            return
        elif code == OP_RECV:
            request = self.transport.post_recv_values(
                state.rank, state.cp_a[i], state.cp_tag[i], state.cp_kind[i], state.now
            )
            if not request.completed:
                self._suspend(state, request, "recv")
                return
            # Met from the unexpected queue: done without suspending.
            state.now = time = max(state.now, request.completion_time)
            self._release(request)
        else:  # OP_SEND
            request = self.transport.post_send_values(
                state.rank,
                state.cp_a[i],
                state.cp_nbytes[i],
                state.cp_tag[i],
                state.cp_kind[i],
                state.now,
                True,
            )
            if request is not None:  # rendezvous: wait for the handshake
                self._suspend(state, request, "send")
                return
            state.now = time = state.now + self.machine.send_overhead
        # Shared next-step push (inline of EventQueue.push_typed, as in the
        # generator-path handlers).
        if time < self.time:
            time = self.time
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        _heappush(queue._heap, [time, seq, EVENT_STEP, state, None])

    # ------------------------------------------------------------------
    # Per-operation handlers (dispatched via the handler table)
    # ------------------------------------------------------------------
    # The three non-blocking handlers below inline the body of
    # ``EventQueue.push_typed`` (mirrored exactly, minus the negative-time
    # check their clamp makes redundant): scheduling a step is the single
    # most frequent operation of a simulation and the call overhead alone is
    # measurable.

    def _op_compute(self, state: RankState, op: ComputeOp) -> None:
        if op.seconds < 0:
            raise ProgramError(f"rank {state.rank} yielded a negative compute time")
        seconds = op.seconds
        if self._fault_stall is not None:
            seconds += self._fault_stall(state.rank)
        state.now = time = state.now + seconds
        if time < self.time:
            time = self.time
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        _heappush(queue._heap, [time, seq, EVENT_STEP, state, None])

    def _op_send(self, state: RankState, op: SendOp) -> None:
        request = self.transport.post_send_values(
            state.rank, op.dest, int(op.nbytes), op.tag, op.kind, state.now, True
        )
        if request is not None:  # rendezvous: wait for the handshake
            self._suspend(state, request, "send")
            return
        state.now += self.machine.send_overhead
        self.schedule_step(state.now, state, None)

    def _op_isend(self, state: RankState, op: IsendOp) -> None:
        request = self.transport.post_send_values(
            state.rank, op.dest, int(op.nbytes), op.tag, op.kind, state.now
        )
        state.now = time = state.now + self.machine.send_overhead
        if time < self.time:
            time = self.time
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        _heappush(queue._heap, [time, seq, EVENT_STEP, state, request])

    def _op_recv(self, state: RankState, op: RecvOp) -> None:
        request = self.transport.post_recv_values(
            state.rank, op.source, op.tag, op.kind, state.now
        )
        if request.completed:  # met from the unexpected queue
            self._wake(request)
        else:
            self._suspend(state, request, "recv")

    def _op_irecv(self, state: RankState, op: IrecvOp) -> None:
        request = self.transport.post_recv_values(
            state.rank, op.source, op.tag, op.kind, state.now
        )
        time = state.now
        if time < self.time:
            time = self.time
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        _heappush(queue._heap, [time, seq, EVENT_STEP, state, request])

    def _op_wait(self, state: RankState, op: WaitOp) -> None:
        # A send's (or a collective's) status is None: the resume value.
        self._block_on(state, [op.request], "wait", _result_first_status)

    def _op_waitall(self, state: RankState, op: WaitallOp) -> None:
        requests = op.requests
        if type(requests) is not list:
            requests = list(requests)
        self._block_on(state, requests, "waitall", _result_all_statuses)

    # ------------------------------------------------------------------
    def _suspend(self, state: RankState, request: Request, why: str) -> None:
        """Block ``state`` in a send or receive until ``request`` completes:
        the callback is :meth:`_wake`, bound once (the request names its
        rank), so no closure is built per operation."""
        state.status = _BLOCKED
        state.blocked_on = why
        request.add_callback(self._wake)

    def _wake(self, request: Request) -> None:
        """Resume the rank of a finished blocking send or receive with the
        request's status (None for a send) and recycle the request, which no
        program holds.  A generator receive met from the unexpected queue
        takes this path directly."""
        state = self._ranks[request.rank]
        state.now = max(state.now, request.completion_time)
        state.status = _READY
        state.blocked_on = ""
        self._release(request)
        self.schedule_step(state.now, state, request.status)

    def _block_on(
        self,
        state: RankState,
        requests: list[Request],
        why: str,
        result_fn: Callable[[list[Request]], object] | None = None,
    ) -> None:
        """Suspend ``state`` in a wait until every request in ``requests``
        has completed (a blocking send or receive uses :meth:`_suspend`).

        A generator rank's wait passes the ``result_fn`` that shapes its
        resume value.  A compiled rank's wait passes none: it resumes with
        None, and its requests, which never reached a program, are recycled.
        """
        state.status = _BLOCKED
        state.blocked_on = why
        pending = [r for r in requests if not r.completed]
        if not pending:
            # Everything already finished (a wait on long-done requests):
            # resume without allocating a completion closure.
            self._resume(state, requests, result_fn)
            return

        remaining = [len(pending)]

        def on_complete(_request: Request) -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                self._resume(state, requests, result_fn)

        for request in pending:
            request.add_callback(on_complete)

    def _resume(
        self,
        state: RankState,
        requests: list[Request],
        result_fn: Callable[[list[Request]], object] | None,
    ) -> None:
        """Unblock ``state``: advance its clock and schedule the next step."""
        completion = state.now
        for request in requests:
            if request.completion_time > completion:
                completion = request.completion_time
        state.now = completion
        state.status = _READY
        state.blocked_on = ""
        value = None
        if result_fn is not None:
            value = result_fn(requests)
        else:
            release = self.transport.release_request
            for request in requests:
                release(request)
        self.schedule_step(completion, state, value)
