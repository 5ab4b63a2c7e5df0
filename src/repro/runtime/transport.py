"""The transport engine: eager and rendezvous protocols over the network model.

This module plays the role of MPICH's ADI/ch_p4 layer in the paper's setup:
it receives send/receive postings from the simulation engine, selects a
protocol (eager vs rendezvous, subject to the flow-control policy), times the
resulting network traffic with :class:`repro.sim.network.NetworkModel`,
matches messages to posted receives with MPI semantics, accounts eager-buffer
memory, and drives the two-level tracer.

A receive is posted through :meth:`Transport.post_recv_values` (one
message, given as field values: an operation object's fields under the
generator protocol, lane values under the op-array fast lane).  A send is
posted the same way through :meth:`Transport.post_send_values`, or a whole
timestamp cohort's sends at once through :meth:`Transport.post_send_burst`,
bit-identically to calling the values API once per message.  Both send
paths start a rendezvous through one helper.

Timing model
------------
* Eager send: the payload is injected ``send_overhead`` after the send is
  posted; the send completes at injection (the payload is considered
  buffered).  The payload arrives ``latency + size/bandwidth + jitter`` later.
* Rendezvous send: an RTS control message travels to the receiver; once a
  matching receive is posted a CTS returns to the sender; the payload is then
  injected and the send completes when it has been fully serialised into the
  network.  The receive completes when the payload arrives.
* Unexpected eager messages are buffered (per-peer eager buffer, falling back
  to heap) and copied out when the matching receive is finally posted.
* Messages between the same (source, destination) pair are delivered in FIFO
  order, as MPI requires.

Delivery
--------
Payload arrivals are scheduled as typed delivery events; the engine hands
every consecutive run of same-timestamp deliveries, whatever their
destinations, to :meth:`Transport.deliver_cohort`.  One pass over the run
traces each arrival, matches and completes it (fault duplicates are traced
but never matched) and traces the match, in exact event order.  The
flow-control policy is notified once per consecutive same-destination run
through :meth:`repro.runtime.protocol.FlowControlPolicy.on_burst_delivered`,
its only delivery hook, which lets the predictive policies feed whole bursts
into their online predictors' amortised batch path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mpi.request import Request, Status
from repro.runtime.buffers import BufferPoolStats, EagerBufferPool
from repro.runtime.matching import (
    PostedReceive,
    PostedReceiveQueue,
    UnexpectedEntry,
    UnexpectedQueue,
)
from repro.runtime.message import Message
from repro.runtime.protocol import FlowControlPolicy, StandardFlowControl
from repro.runtime.stats import RuntimeStats
from repro.sim.machine import MachineConfig
from repro.sim.network import NetworkModel
from repro.trace.tracer import TwoLevelTracer

__all__ = ["Transport"]

#: Minimum spacing enforced between two deliveries on the same channel so that
#: FIFO order is never violated by jitter.
_FIFO_EPSILON = 1.0e-12

#: The matching-queue entries and receive statuses are named tuples; building
#: them through ``tuple.__new__`` skips the generated ``__new__`` wrapper
#: (one of these is built per message on the hot path, and the wrapper alone
#: costs more than the allocation).
_tuple_new = tuple.__new__


@dataclass
class _Rendezvous:
    """In-flight rendezvous handshake state.

    ``handshake_id`` is set only for cross-partition handshakes under the
    parallel engine: the sender-side transport keys its in-flight table with
    it, the receiver-side transport parks the matched receive under it, and
    the RTS/CTS/DATA records exchanged at window barriers carry it.  ``None``
    means the whole handshake is partition-local (or the run is not
    partitioned at all) and proceeds through direct event scheduling.
    """

    message: Message
    send_request: Optional[Request]
    posted: Optional[PostedReceive] = None
    handshake_id: object = None


class _Endpoint:
    """Per-rank matching state, and the rank's two latency accumulators
    (looked up in :class:`RuntimeStats` at its first delivery)."""

    __slots__ = ("rank", "posted", "unexpected", "buffers", "eager_acc", "rendezvous_acc")

    def __init__(self, rank: int, nprocs: int, machine: MachineConfig, preallocate: bool) -> None:
        self.rank = rank
        self.posted = PostedReceiveQueue()
        self.unexpected = UnexpectedQueue()
        self.buffers = EagerBufferPool(
            rank=rank,
            nprocs=nprocs,
            buffer_bytes=machine.eager_buffer_bytes,
            preallocate_all=preallocate,
        )
        self.eager_acc = self.rendezvous_acc = None


class Transport:
    """Message transport shared by all simulated ranks.

    Parameters
    ----------
    nprocs:
        Number of ranks.
    machine:
        Per-node cost model.
    network:
        Network timing model (owns the jitter RNG).
    tracer:
        Optional two-level tracer; if ``None``, no traces are recorded.
    policy:
        Flow-control policy; defaults to :class:`StandardFlowControl`.
    stats:
        Optional pre-existing :class:`RuntimeStats` to accumulate into.
    faults:
        Optional :class:`repro.sim.faults.FaultInjector`.  The transport
        consults it (only when its drop model is active) for data payloads:
        dropped messages arrive late after deterministic retransmission
        delays, and spurious duplicates are delivered — traced and shown to
        the policy — without ever matching a posted receive.
    """

    def __init__(
        self,
        nprocs: int,
        machine: MachineConfig,
        network: NetworkModel,
        tracer: TwoLevelTracer | None = None,
        policy: FlowControlPolicy | None = None,
        stats: RuntimeStats | None = None,
        faults=None,
    ) -> None:
        if nprocs <= 0:
            raise ValueError(f"nprocs must be positive, got {nprocs}")
        self.nprocs = nprocs
        self.machine = machine
        self.network = network
        self.tracer = tracer
        # Machine parameters copied to locals: read once or twice per message.
        self._send_overhead = machine.send_overhead
        self._recv_overhead = machine.recv_overhead
        self._eager_threshold = machine.eager_threshold
        self._control_bytes = machine.control_message_bytes
        self._handshake_cpu = machine.rendezvous_handshake_cpu
        self._copy_bandwidth = machine.unexpected_copy_bandwidth
        self.policy = policy or StandardFlowControl()
        self.policy.bind(machine, nprocs)
        # StandardFlowControl.allows_eager is a pure size test: both send
        # paths make it inline against this threshold (None: ask the policy).
        self._standard_eager = (
            machine.eager_threshold if type(self.policy) is StandardFlowControl else None
        )
        # Skip the delivery notification entirely for policies that keep the
        # base no-op hooks (the standard/baseline policies): a bound no-op
        # method call per run is measurable on the delivery path.
        policy_type = type(self.policy)
        self._policy_observes_delivery = (
            policy_type.on_message_delivered is not FlowControlPolicy.on_message_delivered
            or policy_type.on_burst_delivered is not FlowControlPolicy.on_burst_delivered
        )
        # Bound tracer hooks (None when tracing is off): called per message.
        self._tracer_recv_posted = tracer.on_recv_posted if tracer else None
        self._tracer_recv_matched = tracer.on_recv_matched if tracer else None
        self._tracer_arrival = tracer.on_message_arrival if tracer else None
        self.stats = stats or RuntimeStats(nprocs=nprocs)
        self.stats.nprocs = nprocs
        #: Freelist of recycled request handles.  Only requests of *blocking*
        #: operations end up here (the engine releases them after the owning
        #: rank has resumed; their handles never escape to rank programs), so
        #: reuse is invisible to applications.  Bounded by the number of
        #: concurrently blocked ranks, i.e. tiny.
        self._request_pool: list[Request] = []
        # Consulted per data payload only when the drop model can fire; a
        # null/absent injector keeps the delivery path branch-free.
        self._faults = faults if faults is not None and faults.drop_active else None
        self._engine = None
        self._schedule_delivery = None
        self._schedule_delivery_batch = None
        self._channel_last_arrival: dict[tuple[int, int], float] = {}
        # Parallel-engine partition mode (see enable_partition_mode): when
        # set, sends whose destination rank lives in another partition are
        # buffered as serialised records instead of scheduled locally.  None
        # keeps every path branch-cheap for the ordinary single-process case.
        self._partition_local: frozenset[int] | None = None
        self._outbox: list[tuple] = []
        self._outbox_seq = 0
        self._next_handshake = 0
        #: Sender-side in-flight cross-partition rendezvous states.
        self._pending_rendezvous: dict[tuple, _Rendezvous] = {}
        #: Receiver-side matched-but-awaiting-payload receives, parked while
        #: the CTS/DATA legs of a cross-partition handshake are in transit.
        self._parked_posted: dict[tuple, PostedReceive] = {}
        self._endpoints: list[_Endpoint] = []
        for rank in range(nprocs):
            peers = self.policy.preallocate_peers(rank)
            preallocate_all = machine.preallocate_all_peers and peers is None
            endpoint = _Endpoint(rank, nprocs, machine, preallocate_all)
            if peers is not None:
                endpoint.buffers.preallocate(peers)
            self._endpoints.append(endpoint)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, engine) -> None:
        """Attach the simulation engine.

        The engine must expose ``schedule_at(time, fn)`` for control traffic
        and ``schedule_delivery(time, message, posted)`` /
        ``schedule_delivery_batch(time, items)`` for typed payload arrivals.
        """
        self._engine = engine
        self._schedule_delivery = engine.schedule_delivery
        self._schedule_delivery_batch = engine.schedule_delivery_batch

    def _schedule(self, time: float, callback) -> None:
        if self._engine is None:
            raise RuntimeError("transport is not attached to a simulation engine")
        self._engine.schedule_at(time, callback)

    def _schedule_data(self, time: float, message: Message, posted: Optional[PostedReceive]) -> None:
        """Schedule the physical arrival of ``message`` at ``time``."""
        local = self._partition_local
        if local is not None and message.dst not in local:
            # Eager payloads and ghost duplicates aimed at a remote partition
            # become exchange records instead of local events.
            self._outbox_data(time, message)
            return
        self._schedule_delivery(time, message, posted)

    def endpoint(self, rank: int) -> _Endpoint:
        """Return the endpoint of ``rank`` (mainly for tests and stats)."""
        return self._endpoints[rank]

    def release_request(self, request: Request) -> None:
        """Return a completed, engine-owned request to the freelist.

        Callers must guarantee no live reference to ``request`` remains (the
        engine only releases the requests of blocking operations, whose
        handles never reach rank programs).  The next posting may hand the
        same object out again — reinitialised, with a fresh ``req_id``.
        """
        if not request.completed:
            raise RuntimeError(
                f"request {request.req_id} released to the freelist while still "
                "in flight: only completed, engine-owned requests may be recycled"
            )
        self._request_pool.append(request)

    def buffer_stats(self) -> list[BufferPoolStats]:
        """Eager-buffer memory accounting snapshots for every rank."""
        return [ep.buffers.stats() for ep in self._endpoints]

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def post_send_values(
        self,
        rank: int,
        dst: int,
        nbytes: int,
        tag: int,
        kind: str,
        now: float,
        blocking: bool = False,
    ) -> Request | None:
        """Execute a send posted by ``rank`` at ``now``, given as field values.

        Taking scalars keeps the compiled engine lane free of per-op object
        construction.  A ``blocking`` send that goes eager returns None
        instead of a request: it completes at injection, ``now +
        send_overhead``, and its handle would never reach the program.
        """
        if not (0 <= dst < self.nprocs):
            raise ValueError(f"destination rank {dst} out of range [0, {self.nprocs})")
        if dst == rank:
            raise ValueError("self-sends are not supported by the simulated transport")
        if nbytes < 0:
            raise ValueError(f"message size must be non-negative, got {nbytes}")

        size_says_eager = nbytes <= self._eager_threshold
        standard_eager = self._standard_eager
        if standard_eager is None:
            use_eager = self.policy.allows_eager(rank, dst, nbytes, kind, now)
        else:
            use_eager = nbytes <= standard_eager
        pool = self._request_pool
        if use_eager and blocking:
            request = None
        else:
            request = pool.pop()._reuse("send", rank) if pool else Request("send", rank)
        protocol = "eager" if use_eager else "rendezvous"
        # Positional construction: this runs once per message.
        message = Message(rank, dst, tag, nbytes, kind, protocol)
        self.stats.record_send(
            nbytes,
            kind,
            protocol,
            size_says_eager and not use_eager,
            use_eager and not size_says_eager,
        )
        inject = now + self._send_overhead
        message.inject_time = inject
        if use_eager:
            arrival = self._data_arrival(message, inject)
            message.arrival_time = arrival
            self._schedule_data(arrival, message, None)
            if request is not None:
                request._complete(inject)
        else:
            self._post_rendezvous(message, request)
        return request

    def post_send_burst(
        self,
        ranks: list[int],
        dsts: list[int],
        nbytes_list: list[int],
        tags: list[int],
        kinds: list[str],
        nows: list[float],
    ) -> list[Request]:
        """Execute many sends posted at one timestamp cohort (the cohort lane).

        Bit-identical to calling :meth:`post_send_values` once per message in
        list order (which is what the engine does under ``engine="scalar"``),
        returning the requests in the same order.

        When the network is :attr:`~repro.sim.network.NetworkModel.deterministic`
        and no drop faults are attached, the burst is one pass with the
        lookups hoisted and each eager arrival computed inline with the exact
        float grouping of :meth:`NetworkModel.arrival_time` — ``inject +
        (latency + nbytes / bandwidth)``, with jitter and penalty exact zeros
        on the deterministic model.  Policy consultation, FIFO clamping and
        event pushes still run in exact message order.  Send statistics and
        network counters are plain integer sums, so they are accumulated
        locally and applied once after the loop — exact and order-free.

        Eager delivery pushes are *deferred*: while consecutive eager
        messages share one arrival timestamp (the common case for a lockstep
        exchange on the deterministic network), their records are emitted as
        a single ``EVENT_DELIVER_BATCH``, whose sequence block is exactly the
        one the individual pushes would have consumed.  Deferral is
        order-safe because nothing else pushes events between two eager
        messages (``request._complete`` has no callbacks at post time); a
        rendezvous message *does* push a control callback, so the pending run
        is flushed before it.

        Otherwise — jitter, contention, degradation or drop faults make
        arrival computation order-sensitive — the burst simply loops over
        :meth:`post_send_values`.
        """
        n = len(ranks)
        network = self.network
        if self._faults is not None or not network.deterministic:
            post = self.post_send_values
            return [
                post(ranks[i], dsts[i], nbytes_list[i], tags[i], kinds[i], nows[i])
                for i in range(n)
            ]
        nprocs = self.nprocs
        pool = self._request_pool
        eager_threshold = self._eager_threshold
        standard_eager = self._standard_eager
        allows_eager = self.policy.allows_eager
        send_overhead = self._send_overhead
        channel_last = self._channel_last_arrival
        latency = network._latency
        bandwidth = network._bandwidth
        local = self._partition_local
        requests: list[Request] = []
        append = requests.append
        sent_bytes = 0
        coll_count = 0
        eager_count = 0
        eager_bytes = 0
        forced_count = 0
        bypass_count = 0
        pending: list[Message] = []
        pending_arrival = 0.0
        pending_same = True
        for i in range(n):
            rank = ranks[i]
            dst = dsts[i]
            nbytes = nbytes_list[i]
            if not (0 <= dst < nprocs):
                raise ValueError(f"destination rank {dst} out of range [0, {nprocs})")
            if dst == rank:
                raise ValueError("self-sends are not supported by the simulated transport")
            if nbytes < 0:
                raise ValueError(f"message size must be non-negative, got {nbytes}")
            kind = kinds[i]
            now = nows[i]
            request = pool.pop()._reuse("send", rank) if pool else Request("send", rank)
            size_says_eager = nbytes <= eager_threshold
            if standard_eager is None:
                policy_allows = allows_eager(rank, dst, nbytes, kind, now)
            else:
                policy_allows = nbytes <= standard_eager
            protocol = "eager" if policy_allows else "rendezvous"
            message = Message(rank, dst, tags[i], nbytes, kind, protocol)
            sent_bytes += nbytes
            if kind == "collective":
                coll_count += 1
            inject = now + send_overhead
            message.inject_time = inject
            if policy_allows:
                eager_count += 1
                eager_bytes += nbytes
                if not size_says_eager:
                    bypass_count += 1
                arrival = inject + (latency + nbytes / bandwidth)
                key = (rank, dst)
                last = channel_last.get(key, 0.0)
                if arrival <= last:
                    arrival = last + _FIFO_EPSILON
                channel_last[key] = arrival
                message.arrival_time = arrival
                if local is not None and dst not in local:
                    # Partition mode: a cross-partition payload consumes no
                    # local event, so it neither joins nor flushes the
                    # pending delivery run.
                    self._outbox_data(arrival, message)
                else:
                    if not pending:
                        pending_arrival = arrival
                        pending_same = True
                    elif arrival != pending_arrival:
                        pending_same = False
                    pending.append(message)
                request._complete(inject)
            else:
                if size_says_eager:
                    forced_count += 1
                if pending:
                    self._flush_pending_deliveries(pending, pending_arrival, pending_same)
                    pending = []
                self._post_rendezvous(message, request)
            append(request)
        if pending:
            self._flush_pending_deliveries(pending, pending_arrival, pending_same)
        network.messages_timed += eager_count
        network.total_bytes += eager_bytes
        stats = self.stats
        stats.messages_sent += n
        stats.bytes_sent += sent_bytes
        stats.collective_messages += coll_count
        stats.p2p_messages += n - coll_count
        stats.eager_messages += eager_count
        stats.rendezvous_messages += n - eager_count
        stats.forced_rendezvous += forced_count
        stats.eager_bypass_large += bypass_count
        return requests

    def _flush_pending_deliveries(
        self, pending: list[Message], arrival: float, same: bool
    ) -> None:
        """Emit deferred eager deliveries: one batch record when the run
        shares a timestamp, individual records (original order) otherwise."""
        if same and len(pending) > 1:
            self._schedule_delivery_batch(
                arrival, [(message, None) for message in pending]
            )
            return
        schedule_delivery = self._schedule_delivery
        for message in pending:
            schedule_delivery(message.arrival_time, message, None)

    def _post_rendezvous(self, message: Message, request: Request) -> None:
        """Start a rendezvous send: time the RTS and hand it to the receiver.

        The RTS leaves at the message's injection time.  A receiver in this
        process gets it as a local callback; one in another partition gets
        an ``("rts", ...)`` outbox record keyed by a fresh handshake id.
        """
        state = _Rendezvous(message=message, send_request=request)
        self.stats.record_control_message()
        src = message.src
        dst = message.dst
        inject = message.inject_time
        rts_arrival = self.network.arrival_time(src, dst, self._control_bytes, inject)
        local = self._partition_local
        if local is not None and dst not in local:
            handshake_id = (src, self._next_handshake)
            self._next_handshake += 1
            state.handshake_id = handshake_id
            self._pending_rendezvous[handshake_id] = state
            self._outbox_put(
                dst,
                rts_arrival,
                ("rts", src, dst, message.tag, message.nbytes, message.kind, inject,
                 handshake_id),
            )
        else:
            self._schedule(rts_arrival, lambda: self._handle_rts(state, rts_arrival))

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def post_recv_values(
        self, rank: int, source: int, tag: int, kind: str, now: float
    ) -> Request:
        """Execute a receive posted by ``rank`` at ``now``, given as field values."""
        pool = self._request_pool
        request = pool.pop()._reuse("recv", rank) if pool else Request("recv", rank)
        if self._tracer_recv_posted is not None:
            self._tracer_recv_posted(rank, request.req_id, now)

        posted = _tuple_new(PostedReceive, (request, source, tag, kind, now))
        endpoint = self._endpoints[rank]
        entry = endpoint.unexpected.match(posted)
        if entry is None:
            endpoint.posted.post(posted)
        elif entry.is_rendezvous_announcement:
            self._send_cts(entry.rendezvous_token, posted, now + self._handshake_cpu)
        else:
            self._complete_from_unexpected(posted, entry, now)
        return request

    # ------------------------------------------------------------------
    # Internal protocol steps
    # ------------------------------------------------------------------
    def _data_arrival(self, message: Message, inject: float) -> float:
        """Arrival time of a payload, respecting per-channel FIFO order.

        When a fault injector with an active drop model is attached, a
        dropped payload picks up its deterministic retransmission delay
        *before* the FIFO clamp: like MPI over a reliable transport, the
        lost message head-of-line blocks its channel, so later traffic on
        the same channel queues behind the recovery (and arrives as a
        back-to-back burst).  A spurious duplicate copy is scheduled at the
        original, undelayed arrival time; it bypasses the FIFO bookkeeping
        because it is never matched.
        """
        src = message.src
        dst = message.dst
        arrival = self.network.arrival_time(src, dst, message.nbytes, inject)
        faults = self._faults
        if faults is not None:
            delay, duplicate = faults.data_fault(src)
            if delay > 0.0:
                if duplicate:
                    ghost = Message(
                        src, dst, message.tag, message.nbytes, message.kind,
                        message.protocol,
                    )
                    ghost.duplicate = True
                    ghost.inject_time = inject
                    ghost.arrival_time = arrival
                    self._schedule_data(arrival, ghost, None)
                arrival += delay
        key = (src, dst)
        last = self._channel_last_arrival.get(key, 0.0)
        if arrival <= last:
            arrival = last + _FIFO_EPSILON
        self._channel_last_arrival[key] = arrival
        return arrival

    def _handle_rts(self, state: _Rendezvous, arrival: float) -> None:
        """RTS arrived at the receiver: match immediately or park it."""
        message = state.message
        endpoint = self._endpoints[message.dst]
        posted = endpoint.posted.match(message)
        if posted is not None:
            self._send_cts(state, posted, arrival + self._handshake_cpu)
        else:
            endpoint.unexpected.add(
                _tuple_new(UnexpectedEntry, (message, arrival, True, state, None))
            )

    def _send_cts(self, state: _Rendezvous, posted: PostedReceive, time: float) -> None:
        """Receiver grants the transfer: send the CTS back to the sender."""
        state.posted = posted
        self.stats.record_control_message()
        message = state.message
        cts_arrival = self.network.arrival_time(
            message.dst, message.src, self._control_bytes, time
        )
        if state.handshake_id is not None:
            # Cross-partition handshake: the sender lives in another worker.
            # Park the matched receive under the handshake id and ship the
            # CTS back through the barrier exchange.
            self._parked_posted[state.handshake_id] = posted
            self._outbox_put(message.src, cts_arrival, ("cts", state.handshake_id))
            return
        self._schedule(cts_arrival, lambda: self._handle_cts(state, cts_arrival))

    def _handle_cts(self, state: _Rendezvous, arrival: float) -> None:
        """CTS arrived back at the sender: push the payload."""
        message = state.message
        data_inject = arrival + self._handshake_cpu
        data_arrival = self._data_arrival(message, data_inject)
        message.arrival_time = data_arrival
        send_done = data_inject + self.network.serialization_time(message.nbytes)
        state.send_request._complete(send_done)
        if state.handshake_id is not None:
            # Cross-partition handshake: the receiver lives in another worker
            # and holds the matched receive parked under the handshake id.
            self._outbox_data(data_arrival, message, state.handshake_id)
        else:
            self._schedule_data(data_arrival, message, state.posted)

    # ------------------------------------------------------------------
    # Partition mode (parallel engine)
    # ------------------------------------------------------------------
    # In partition mode every worker process simulates a contiguous block of
    # ranks; a send whose destination lives in another partition becomes a
    # serialisable *exchange record* in the outbox instead of a local event.
    # The coordinator drains the outboxes at each conservative barrier and
    # injects the records into the destination partitions, where
    # :meth:`inject_remote` replays them as if they had been scheduled
    # locally.  Three record payloads exist:
    #
    # ``("data", ...)``   — a payload arrival (eager send, rendezvous payload
    #                       after a completed handshake, or a duplicate ghost).
    # ``("rts", ...)``    — a rendezvous request-to-send; the receiver builds a
    #                       sender-less :class:`_Rendezvous` replica keyed by
    #                       ``handshake_id``.
    # ``("cts", id)``     — the matching clear-to-send travelling back to the
    #                       sender's partition.
    #
    # ``handshake_id`` is ``(src_rank, counter)`` with a per-transport counter:
    # globally unique because every source rank lives in exactly one partition.

    def enable_partition_mode(self, local_ranks) -> None:
        """Route sends to ranks outside ``local_ranks`` through the outbox."""
        self._partition_local = frozenset(local_ranks)

    def take_outbox(self) -> list[tuple]:
        """Drain buffered cross-partition records (called at each barrier).

        Each record is ``(target_rank, time, seq, payload)`` where ``seq`` is
        a transport-wide emission counter so the coordinator can order
        same-time records from one partition deterministically.
        """
        outbox = self._outbox
        self._outbox = []
        return outbox

    def _outbox_put(self, target: int, time: float, payload: tuple) -> None:
        seq = self._outbox_seq
        self._outbox_seq = seq + 1
        self._outbox.append((target, time, seq, payload))

    def _outbox_data(self, time: float, message: Message, handshake_id=None) -> None:
        self._outbox_put(
            message.dst,
            time,
            (
                "data",
                message.src,
                message.dst,
                message.tag,
                message.nbytes,
                message.kind,
                message.protocol,
                message.inject_time,
                message.arrival_time,
                message.duplicate,
                handshake_id,
            ),
        )

    def inject_remote(self, time: float, payload: tuple) -> None:
        """Replay one exchange record shipped in from another partition.

        The engine must push the resulting events *before* the next window
        starts; conservative lookahead guarantees ``time`` lies at or beyond
        the window boundary, so injection order relative to local events is
        exactly heap order.
        """
        kind = payload[0]
        if kind == "data":
            (_, src, dst, tag, nbytes, mkind, protocol, inject_time,
             arrival_time, duplicate, handshake_id) = payload
            message = Message(src, dst, tag, nbytes, mkind, protocol)
            message.inject_time = inject_time
            message.arrival_time = arrival_time
            message.duplicate = duplicate
            posted = (
                self._parked_posted.pop(handshake_id)
                if handshake_id is not None
                else None
            )
            self._schedule_delivery(time, message, posted)
        elif kind == "rts":
            _, src, dst, tag, nbytes, mkind, inject_time, handshake_id = payload
            message = Message(src, dst, tag, nbytes, mkind, "rendezvous")
            message.inject_time = inject_time
            state = _Rendezvous(
                message=message, send_request=None, handshake_id=handshake_id
            )
            self._schedule(time, lambda: self._handle_rts(state, time))
        elif kind == "cts":
            state = self._pending_rendezvous.pop(payload[1])
            self._schedule(time, lambda: self._handle_cts(state, time))
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown exchange record kind: {kind!r}")

    def deliver_cohort(
        self, items: list[tuple[Message, Optional[PostedReceive]]], arrival: float
    ) -> None:
        """Payloads arrived at one timestamp, possibly at *several* ranks.

        ``items`` is the full consecutive run of same-time delivery records in
        exact event order, as ``(message, posted)`` pairs (a posted receive
        means a rendezvous payload matched during the handshake);
        destinations may interleave.  One pass, per message in order: trace
        the arrival; skip a fault duplicate (a real receiver deduplicates by
        sequence number, so it never reaches matching or statistics); match,
        complete and trace the match.  The policy hears once per consecutive
        same-destination run, through
        :meth:`~repro.runtime.protocol.FlowControlPolicy.on_burst_delivered`,
        after that run's matches: matching never consults the policy, so
        nothing can tell.
        """
        endpoints = self._endpoints
        stats = self.stats
        record_delivery = stats.record_delivery
        latency_accumulator = stats.latency_accumulator
        recv_overhead = self._recv_overhead
        tracer_arrival = self._tracer_arrival
        tracer_matched = self._tracer_recv_matched
        notify = self.policy.on_burst_delivered if self._policy_observes_delivery else None
        burst = None
        expected_count = 0
        dst = -1
        for message, posted in items:
            d = message.dst
            if d != dst:
                if burst:
                    notify(dst, burst, arrival)
                burst = [] if notify is not None else None
                dst = d
                endpoint = endpoints[d]
                eager_acc = endpoint.eager_acc
                if eager_acc is None:
                    eager_acc = endpoint.eager_acc = latency_accumulator("eager", d)
                    endpoint.rendezvous_acc = latency_accumulator("rendezvous", d)
                rendezvous_acc = endpoint.rendezvous_acc
            src = message.src
            nbytes = message.nbytes
            if tracer_arrival is not None:
                tracer_arrival(d, src, nbytes, message.tag, message.kind, arrival)
            if burst is not None:
                burst.append((src, nbytes, message.tag, message.kind))
            if message.duplicate:
                continue
            if posted is None:
                posted = endpoint.posted.match(message)
                if posted is None:
                    storage = endpoint.buffers.store_unexpected(src, nbytes)
                    record_delivery(expected=False, storage=storage)
                    endpoint.unexpected.add(
                        _tuple_new(
                            UnexpectedEntry, (message, arrival, False, None, storage)
                        )
                    )
                    continue
            # The receive completes on arrival (no copy out); the latency
            # accumulator is updated in place, samples in message order.
            expected_count += 1
            complete_time = arrival + recv_overhead
            request = posted.request
            if tracer_matched is not None:
                tracer_matched(
                    d, request.req_id, src, nbytes, message.tag, message.kind,
                    complete_time,
                )
            arrival_time = message.arrival_time
            status = _tuple_new(
                Status,
                (
                    src,
                    message.tag,
                    nbytes,
                    message.kind,
                    arrival_time if arrival_time == arrival_time else arrival,
                ),
            )
            acc = eager_acc if message.protocol == "eager" else rendezvous_acc
            latency = complete_time - message.inject_time
            acc.count += 1
            acc.total += latency
            if latency > acc.maximum:
                acc.maximum = latency
            request._complete(complete_time, status)
        if burst:
            notify(dst, burst, arrival)
        stats.expected_deliveries += expected_count

    def _complete_from_unexpected(
        self, posted: PostedReceive, entry: UnexpectedEntry, now: float
    ) -> None:
        """A newly posted receive matched a buffered eager message: release
        its buffer, then build the status, trace it and complete the request
        at the end of the copy out.  The request was just handed out, so no
        one waits on it yet: its fields are set without the callback round
        of ``Request._complete``."""
        message = entry.message
        request = posted.request
        rank = request.rank
        endpoint = self._endpoints[rank]
        endpoint.buffers.release_unexpected(message.src, message.nbytes, entry.storage)
        ready_time = max(now, entry.arrival_time)
        copy_penalty = message.nbytes / self._copy_bandwidth
        complete_time = ready_time + self._recv_overhead + copy_penalty
        arrival_time = message.arrival_time
        status = _tuple_new(
            Status,
            (
                message.src,
                message.tag,
                message.nbytes,
                message.kind,
                arrival_time if arrival_time == arrival_time else ready_time,
            ),
        )
        if self._tracer_recv_matched is not None:
            self._tracer_recv_matched(
                rank,
                request.req_id,
                message.src,
                message.nbytes,
                message.tag,
                message.kind,
                complete_time,
            )
        acc = endpoint.eager_acc if message.protocol == "eager" else endpoint.rendezvous_acc
        acc.add(complete_time - message.inject_time)
        request.completed = True
        request.completion_time = complete_time
        request.status = status

    # ------------------------------------------------------------------
    def pending_counts(self) -> dict[int, tuple[int, int]]:
        """Per-rank (posted, unexpected) queue lengths — useful for deadlock reports."""
        return {
            ep.rank: (len(ep.posted), len(ep.unexpected)) for ep in self._endpoints
        }
