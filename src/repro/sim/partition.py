"""Conservative parallel execution: rank partitions over worker processes.

``engine="parallel"`` splits the simulated ranks into disjoint partitions,
forks one worker process per partition (each inheriting the fully-built
:class:`~repro.sim.engine.Simulator` copy-on-write) and advances all of them
in *conservative windows*:

1. Every worker reports the timestamp of its next pending event and hands
   over the cross-partition records its transport buffered (eager payloads,
   rendezvous RTS/CTS, duplicate ghosts — see
   :meth:`repro.runtime.transport.Transport.take_outbox`).
2. The coordinator takes the global minimum ``T`` over those next-event
   times *and* the in-flight record times, and opens the window
   ``[T, T + lookahead)`` where ``lookahead`` is the network's minimum
   positive link latency (:meth:`repro.sim.network.NetworkModel.min_latency`).
3. Records are routed to their destination partitions, sorted by
   ``(time, origin_partition, seq)``, injected, and every worker drains its
   queue up to (but excluding) the window end through the engine's run loop
   with cohorting on (:meth:`Simulator._run_loop` with ``until=``).

Safety is the classic conservative-lookahead argument: any event executed in
the window happens at ``t < T + lookahead``, and any message it emits toward
another partition arrives no earlier than ``t' + latency >= T + lookahead``
(``t' >= T`` is when the send executes, and every link latency is at least
the lookahead).  So nothing a worker does during a window can affect another
worker *within* that window — the exchanged records always land at or beyond
the barrier, and every partition sees exactly the event sequence the
single-process engine would execute.  Outputs are therefore bit-identical to
the in-process engines (the per-rank accumulation of float
statistics makes the reductions order-independent across partitions; see
:mod:`repro.runtime.stats` and :mod:`repro.sim.faults`).

Eligibility is checked by :meth:`Simulator._parallel_fallback_reason`;
ineligible configurations run in-process and record the reason in
:attr:`SimulationResult.parallel_info`.
"""

from __future__ import annotations

import gc
import os
from time import monotonic as _monotonic

from repro.sim.errors import (
    DeadlockError,
    ProgramError,
    SimulationError,
    TimeLimitExceeded,
    deadlock_detail,
)
from repro.sim.faults import merge_fault_partials

__all__ = ["contiguous_blocks", "run_partitioned"]


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
def contiguous_blocks(nprocs: int, jobs: int) -> list[list[int]]:
    """Split ranks ``0..nprocs-1`` into ``jobs`` balanced contiguous blocks.

    The partitioning: nearest-neighbour workloads (lockstep halo
    exchanges, ring exchanges) keep almost all traffic inside a block, so
    only the boundary ranks ever cross the barrier.  Blocks differ in size
    by at most one rank; empty blocks are dropped when ``jobs > nprocs``.
    """
    if nprocs <= 0:
        raise ValueError(f"nprocs must be positive, got {nprocs}")
    if jobs <= 0:
        raise ValueError(f"jobs must be positive, got {jobs}")
    base, extra = divmod(nprocs, jobs)
    blocks = []
    start = 0
    for i in range(jobs):
        size = base + (1 if i < extra else 0)
        if size:
            blocks.append(list(range(start, start + size)))
        start += size
    return blocks


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
def run_partitioned(sim):
    """Run a prepared simulator's ranks across forked partition workers.

    Called by :meth:`Simulator.run` after the rank states are built and the
    eligibility check passed; nothing has been scheduled yet (each worker
    schedules step 0 for its own ranks only).  Returns the merged
    :class:`~repro.sim.engine.SimulationResult`, bit-identical to the
    in-process engines.
    """
    import multiprocessing

    from repro.sim.engine import SimulationResult  # noqa: F401 (merge below)

    nprocs = sim.nprocs
    blocks = contiguous_blocks(nprocs, sim.engine_jobs)
    lookahead = sim.network.min_latency()
    if lookahead <= 0.0:
        raise SimulationError(
            "parallel engine requires a positive minimum network latency as "
            f"its conservative lookahead, got {lookahead!r}"
        )
    rank_part = [0] * nprocs
    for p, block in enumerate(blocks):
        for rank in block:
            rank_part[rank] = p
    k = len(blocks)

    ctx = multiprocessing.get_context("fork")
    workers = []
    conns = []
    for block in blocks:
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main, args=(sim, block, child_conn), daemon=True
        )
        proc.start()
        child_conn.close()
        workers.append(proc)
        conns.append(parent_conn)

    wall_deadline = (
        _monotonic() + sim.max_wall_seconds
        if sim.max_wall_seconds is not None
        else None
    )
    windows = 0
    try:
        while True:
            next_times: list[float | None] = []
            outboxes = []
            total_popped = 0
            for conn in conns:
                msg = _recv(conn)
                if msg[0] == "error":
                    raise _rebuild_error(msg)
                _, next_time, popped, outbox = msg
                next_times.append(next_time)
                total_popped += popped
                outboxes.append(outbox)
            if sim.max_events is not None and total_popped > sim.max_events:
                raise SimulationError(
                    f"exceeded max_events={sim.max_events}; the workload is "
                    "larger than expected or the simulation is livelocked"
                )
            if wall_deadline is not None and _monotonic() > wall_deadline:
                raise TimeLimitExceeded(
                    f"exceeded max_wall_seconds={sim.max_wall_seconds:g}; "
                    "the simulation is livelocked or far larger than expected"
                )
            # Route the in-flight records and find the global minimum next
            # event time (queued events and in-flight records both count).
            min_time: float | None = None
            for t in next_times:
                if t is not None and (min_time is None or t < min_time):
                    min_time = t
            injections: list[list[tuple]] = [[] for _ in range(k)]
            for p, outbox in enumerate(outboxes):
                for target, time, seq, payload in outbox:
                    injections[rank_part[target]].append((time, p, seq, payload))
                    if min_time is None or time < min_time:
                        min_time = time
            if min_time is None:
                # Every queue is empty and nothing is in flight: terminate.
                for conn in conns:
                    conn.send(("finish",))
                break
            window_end = min_time + lookahead
            windows += 1
            for p, conn in enumerate(conns):
                batch = injections[p]
                # (time, origin_partition, seq): a deterministic total order
                # for same-time records regardless of worker arrival order.
                batch.sort(key=lambda rec: rec[:3])
                conn.send(
                    ("window", window_end, [(t, payload) for t, _, _, payload in batch])
                )
        payloads = []
        for conn in conns:
            msg = _recv(conn)
            if msg[0] == "error":
                raise _rebuild_error(msg)
            payloads.append(msg[1])
    finally:
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        for proc in workers:
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=10.0)

    return _merge_results(sim, blocks, payloads, windows, lookahead)


def _recv(conn):
    try:
        return conn.recv()
    except EOFError:
        raise SimulationError(
            "parallel worker exited without reporting a result (killed or "
            "crashed before the barrier)"
        ) from None


def _rebuild_error(msg) -> Exception:
    _, name, text, blocked = msg
    if name == "DeadlockError":
        return DeadlockError(blocked or [], text)
    if name == "TimeLimitExceeded":
        return TimeLimitExceeded(text)
    if name == "ProgramError":
        return ProgramError(text)
    if name == "SimulationError":
        return SimulationError(text)
    return SimulationError(f"parallel worker failed with {name}: {text}")


def _merge_results(sim, blocks, payloads, windows: int, lookahead: float):
    from repro.sim.engine import SimulationResult

    nprocs = sim.nprocs
    finish = [0.0] * nprocs
    done = 0
    blocked: dict[int, str] = {}
    events = 0
    pending_detail: dict = {}
    stats = sim.transport.stats
    fault_partials: list[dict] = []
    buffer_stats = sim.transport.buffer_stats()
    traces = []
    trace_pending: dict = {}
    # Partition order: integer counters sum exactly in any order, and the
    # per-rank float dicts are disjoint, so the merge order never shows.
    for payload in payloads:
        for rank, now in payload["finish"].items():
            finish[rank] = now
        done += len(payload["done"])
        blocked.update(payload["blocked"])
        events += payload["events"]
        sim.vector_cohorts += payload["vector_cohorts"]
        stats.merge_from(payload["stats"])
        if payload["fault_partial"] is not None:
            fault_partials.append(payload["fault_partial"])
        if payload["traces"] is not None:
            traces.extend(payload["traces"])
            trace_pending.update(payload["pending_traces"])
        for rank, snapshot in payload["buffer_stats"].items():
            buffer_stats[rank] = snapshot
        pending_detail.update(payload["pending_counts"])
    if done != nprocs:
        raise DeadlockError(sorted(blocked), deadlock_detail(blocked, pending_detail))
    tracer = sim.tracer
    if tracer is not None:
        tracer.adopt_traces(traces, trace_pending)
        tracer.finalize()
    sim.parallel_info = {
        "partitions": len(blocks),
        "windows": windows,
        "lookahead": lookahead,
        "engine_jobs": sim.engine_jobs,
    }
    return SimulationResult(
        nprocs=nprocs,
        makespan=max(finish, default=0.0),
        rank_finish_times=finish,
        events_processed=events,
        stats=stats,
        tracer=tracer,
        buffer_stats=buffer_stats,
        fault_stats=merge_fault_partials(fault_partials) if fault_partials else None,
        parallel_info=sim.parallel_info,
    )


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
def _worker_main(sim, local_ranks, conn) -> None:
    """One partition worker: windowed drain of the inherited simulator.

    Runs in a forked child.  Only the local ranks are scheduled, the
    transport routes remote sends into its outbox, and each round trips:
    ``sync(next_time, popped, outbox)`` up, ``window(end, injections)`` (or
    ``finish``) down.  The final ``result`` payload carries everything the
    coordinator needs to merge a bit-identical :class:`SimulationResult`.
    """
    try:
        local_set = frozenset(local_ranks)
        transport = sim.transport
        transport.enable_partition_mode(local_set)
        sim._done_count = 0
        for state in sim._ranks:
            if state.rank in local_set:
                sim.schedule_step(0.0, state, None)
        queue = sim._queue
        run_window = sim._run_loop
        take_outbox = transport.take_outbox
        inject = transport.inject_remote
        # Same rationale as Simulator.run: the drain allocates short-lived,
        # cycle-free objects; the worker process exits right after.
        gc.disable()
        while True:
            conn.send(("sync", queue.peek_time(), queue.events_processed, take_outbox()))
            msg = conn.recv()
            if msg[0] == "finish":
                break
            _, window_end, injections = msg
            for time, payload in injections:
                inject(time, payload)
            run_window(until=window_end)
        conn.send(("result", _worker_payload(sim, local_set)))
    except BaseException as exc:
        try:
            conn.send(
                (
                    "error",
                    type(exc).__name__,
                    str(exc),
                    list(getattr(exc, "blocked_ranks", ()) or ()),
                )
            )
        except Exception:  # pragma: no cover - pipe already gone
            pass
    finally:
        try:
            conn.close()
        finally:
            # Skip interpreter teardown: the forked child shares inherited
            # state (atexit hooks, open files) with the coordinator.
            os._exit(0)


def _worker_payload(sim, local_set) -> dict:
    from repro.sim.engine import RankStatus

    transport = sim.transport
    ranks = sorted(local_set)
    states = [sim._ranks[r] for r in ranks]
    tracer = sim.tracer
    traces = None
    pending = None
    if tracer is not None:
        traces = [tracer._traces[r] for r in ranks]
        pending = {r: tracer._pending[r] for r in ranks if tracer._pending[r]}
    return {
        "finish": {s.rank: s.now for s in states},
        "done": [s.rank for s in states if s.status is RankStatus.DONE],
        "blocked": {
            s.rank: s.blocked_on for s in states if s.status is RankStatus.BLOCKED
        },
        "events": sim._queue.events_processed,
        "vector_cohorts": sim.vector_cohorts,
        "stats": transport.stats,
        "fault_partial": (
            sim.faults.partial_counters() if sim.faults is not None else None
        ),
        "traces": traces,
        "pending_traces": pending,
        "buffer_stats": {r: transport.endpoint(r).buffers.stats() for r in ranks},
        "pending_counts": {
            r: v for r, v in transport.pending_counts().items() if r in local_set
        },
    }
