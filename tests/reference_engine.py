"""A reference engine: the generator protocol run one event at a time.

The oracle the production engine is checked against.  It executes rank
programs written to the generator protocol (the seven operations of
:mod:`repro.mpi.ops`, plus waits on :class:`CollectiveRequest` handles) on one
heap of ``(time, seq, action, arguments)`` events, with its own matching queues,
eager and rendezvous timing, per-channel FIFO clamp, eager-buffer accounting
and two trace lists.  Nothing is batched: every delivery is its own event and
the flow-control policy hears about each message on its own.

It shares only the cost models (``MachineConfig``, ``NetworkModel``), the
policy object, :mod:`repro.mpi` and ``SeededRNG`` with the simulator, and
models no faults.
"""

from __future__ import annotations

import heapq

from repro.mpi.communicator import Communicator, RankContext
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, KIND_COLLECTIVE
from repro.mpi.ops import ComputeOp, IrecvOp, IsendOp, RecvOp, SendOp, WaitallOp, WaitOp
from repro.mpi.request import Request, Status
from repro.sim.machine import MachineConfig
from repro.sim.network import NetworkConfig, NetworkModel
from repro.util.rng import SeededRNG

FIFO_EPSILON = 1.0e-12
COUNTERS = (
    "nprocs", "messages_sent", "bytes_sent", "p2p_messages", "collective_messages",
    "eager_messages", "rendezvous_messages", "forced_rendezvous", "eager_bypass_large",
    "expected_deliveries", "unexpected_deliveries", "unexpected_heap_stores",
    "control_messages",
)


class Msg:
    __slots__ = ("src", "dst", "tag", "nbytes", "kind", "arrival")

    def __init__(self, src, dst, tag, nbytes, kind):
        self.src, self.dst, self.tag, self.nbytes, self.kind = src, dst, tag, nbytes, kind


def accepts(source, tag, msg):
    return source in (ANY_SOURCE, msg.src) and tag in (ANY_TAG, msg.tag)


class ReferenceEngine:
    """Runs one program factory per rank; see :meth:`run` for the outputs."""

    def __init__(self, nprocs, policy, network=None, machine=None, seed=12345, faults=None):
        if faults is not None:
            raise ValueError("the reference engine models no faults")
        self.nprocs = nprocs
        self.machine = machine = machine or MachineConfig()
        if network is None:
            network = NetworkConfig(seed=seed)
        if isinstance(network, NetworkConfig):
            network = NetworkModel(network if network.seed is not None else network.with_overrides(seed=seed))
        self.network = network
        self.seed = seed
        self.policy = policy
        policy.bind(machine, nprocs)
        self.buffered = []
        for rank in range(nprocs):
            peers = policy.preallocate_peers(rank)
            if peers is None:
                peers = range(nprocs) if machine.preallocate_all_peers else ()
            self.buffered.append(set(peers) - {rank})
        self.occupied = [dict() for _ in range(nprocs)]
        self.posted = [[] for _ in range(nprocs)]      # [request, source, tag, slot]
        self.unexpected = [[] for _ in range(nprocs)]  # [msg, arrival, send request, storage]
        self.logical = [[] for _ in range(nprocs)]
        self.physical = [[] for _ in range(nprocs)]
        self.channel_last = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.counters["nprocs"] = nprocs
        self.heap = []
        self.seq = 0
        self.time = 0.0

    def push(self, time, action, *arguments):
        heapq.heappush(self.heap, (max(time, self.time), self.seq, action, arguments))
        self.seq += 1

    def count(self, name, n=1):
        self.counters[name] += n

    # -- the protocol ----------------------------------------------------
    def data_arrival(self, msg, inject):
        arrival = self.network.arrival_time(msg.src, msg.dst, msg.nbytes, inject)
        last = self.channel_last.get((msg.src, msg.dst), 0.0)
        if arrival <= last:
            arrival = last + FIFO_EPSILON
        self.channel_last[msg.src, msg.dst] = msg.arrival = arrival
        return arrival

    def send(self, rank, dst, nbytes, tag, kind):
        if not 0 <= dst < self.nprocs or dst == rank or nbytes < 0:
            raise ValueError(f"bad send {rank} -> {dst} of {nbytes} bytes")
        m = self.machine
        request = Request("send", rank)
        eager = self.policy.allows_eager(rank, dst, nbytes, kind, self.clock[rank])
        small = nbytes <= m.eager_threshold
        self.count("messages_sent")
        self.count("bytes_sent", nbytes)
        self.count("collective_messages" if kind == KIND_COLLECTIVE else "p2p_messages")
        self.count("eager_messages" if eager else "rendezvous_messages")
        self.count("forced_rendezvous", small and not eager)
        self.count("eager_bypass_large", eager and not small)
        msg = Msg(rank, dst, tag, nbytes, kind)
        inject = self.clock[rank] + m.send_overhead
        if eager:
            self.push(self.data_arrival(msg, inject), self.deliver, msg, None)
            request._complete(inject)
        else:
            self.count("control_messages")
            rts = self.network.arrival_time(rank, dst, m.control_message_bytes, inject)
            self.push(rts, self.rts, msg, request, rts)
        return request

    def rts(self, msg, request, arrival):
        for i, posted in enumerate(self.posted[msg.dst]):
            if accepts(posted[1], posted[2], msg):
                del self.posted[msg.dst][i]
                return self.cts(msg, request, posted, arrival + self.machine.rendezvous_handshake_cpu)
        self.unexpected[msg.dst].append([msg, arrival, request, None])

    def cts(self, msg, request, posted, time):
        self.count("control_messages")
        arrival = self.network.arrival_time(msg.dst, msg.src, self.machine.control_message_bytes, time)
        self.push(arrival, self.payload, msg, request, posted, arrival)

    def payload(self, msg, request, posted, arrival):
        inject = arrival + self.machine.rendezvous_handshake_cpu
        data_arrival = self.data_arrival(msg, inject)
        request._complete(inject + self.network.serialization_time(msg.nbytes))
        self.push(data_arrival, self.deliver, msg, posted)

    def recv(self, rank, source, tag, kind):
        request = Request("recv", rank)
        posted = [request, source, tag, len(self.logical[rank])]
        self.logical[rank].append(None)
        now = self.clock[rank]
        for i, (msg, arrival, send_request, storage) in enumerate(self.unexpected[rank]):
            if accepts(source, tag, msg):
                del self.unexpected[rank][i]
                if send_request is not None:
                    self.cts(msg, send_request, posted, now + self.machine.rendezvous_handshake_cpu)
                else:
                    if storage == "buffer":
                        occupied = self.occupied[rank]
                        occupied[msg.src] = max(0, occupied[msg.src] - msg.nbytes)
                    copy = msg.nbytes / self.machine.unexpected_copy_bandwidth
                    self.complete(posted, msg, max(now, arrival), copy)
                return request
        self.posted[rank].append(posted)
        return request

    def complete(self, posted, msg, ready, copy):
        request, _, _, slot = posted
        time = ready + self.machine.recv_overhead + copy
        self.logical[request.rank][slot] = (msg.src, msg.nbytes, msg.tag, msg.kind, time)
        request._complete(time, Status(msg.src, msg.tag, msg.nbytes, msg.kind, msg.arrival))

    def deliver(self, msg, posted):
        dst, now = msg.dst, self.time
        self.physical[dst].append((msg.src, msg.nbytes, msg.tag, msg.kind, now))
        self.policy.on_burst_delivered(dst, [(msg.src, msg.nbytes, msg.tag, msg.kind)], now)
        if posted is None:
            for i, candidate in enumerate(self.posted[dst]):
                if accepts(candidate[1], candidate[2], msg):
                    posted = self.posted[dst].pop(i)
                    break
        if posted is not None:
            self.count("expected_deliveries")
            return self.complete(posted, msg, now, 0.0)
        occupied = self.occupied[dst]
        held = occupied.get(msg.src, 0)
        storage = "heap"
        if msg.src in self.buffered[dst] and self.machine.eager_buffer_bytes - held >= msg.nbytes:
            occupied[msg.src] = held + msg.nbytes
            storage = "buffer"
        self.count("unexpected_deliveries")
        self.count("unexpected_heap_stores", storage == "heap")
        self.unexpected[dst].append([msg, now, None, storage])

    # -- rank programs ---------------------------------------------------
    def step(self, rank, value):
        try:
            op = self.programs[rank].send(value)
        except StopIteration:
            self.done += 1
            return
        cls = type(op)
        if cls is ComputeOp:
            self.clock[rank] += op.seconds
            self.push(self.clock[rank], self.step, rank, None)
        elif cls is SendOp or cls is IsendOp:
            request = self.send(rank, op.dest, int(op.nbytes), op.tag, op.kind)
            if cls is SendOp:
                return self.block(rank, [request], lambda requests: None)
            self.clock[rank] += self.machine.send_overhead
            self.push(self.clock[rank], self.step, rank, request)
        elif cls is RecvOp:
            request = self.recv(rank, op.source, op.tag, op.kind)
            self.block(rank, [request], lambda requests: requests[0].status)
        elif cls is IrecvOp:
            self.push(self.clock[rank], self.step, rank, self.recv(rank, op.source, op.tag, op.kind))
        elif cls is WaitOp:
            self.block(rank, [op.request], lambda requests: requests[0].status)
        elif cls is WaitallOp:
            self.block(rank, list(op.requests), lambda requests: [r.status for r in requests])
        else:
            raise TypeError(f"rank {rank} yielded {op!r}")

    def block(self, rank, requests, result):
        pending = [r for r in requests if not r.completed]
        left = [len(pending)]

        def resume(_request=None):
            left[0] -= 1
            if left[0] > 0:
                return
            for request in requests:
                if request.completed and request.completion_time > self.clock[rank]:
                    self.clock[rank] = request.completion_time
            self.push(self.clock[rank], self.step, rank, result(requests))

        if not pending:
            return resume()
        for request in pending:
            request.add_callback(resume)

    def run(self, programs):
        """Run ``programs`` (one factory, or one per rank) to completion.

        Returns ``(finish_times, logical, physical, counters)``: per rank its
        clock at exit and its canonical ``(sender, nbytes, tag, kind, time)``
        streams — logical in posting order, physical by ``(time, sender,
        tag, kind, nbytes)`` — and the integer protocol counters.
        """
        if len(programs) == 1:
            programs = list(programs) * self.nprocs
        self.clock = [0.0] * self.nprocs
        self.programs = []
        for rank, factory in enumerate(programs):
            comm = Communicator(rank=rank, size=self.nprocs)
            rng = SeededRNG(self.seed, "rank", rank)
            self.programs.append(factory(RankContext(rank=rank, size=self.nprocs, comm=comm, rng=rng)))
            self.push(0.0, self.step, rank, None)
        self.done = 0
        while self.heap:
            time, _, action, arguments = heapq.heappop(self.heap)
            self.time = max(self.time, time)
            action(*arguments)
        if self.done != self.nprocs:
            raise RuntimeError(f"deadlock: {self.nprocs - self.done} ranks never finished")
        physical = [
            sorted(p, key=lambda r: (r[4], r[0], r[2], r[3] == KIND_COLLECTIVE, r[1]))
            for p in self.physical
        ]
        return list(self.clock), self.logical, physical, dict(self.counters)
