"""Counters aggregated over one simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["LatencyAccumulator", "RuntimeStats"]


@dataclass
class LatencyAccumulator:
    """Streaming mean/max accumulator for message latencies."""

    count: int = 0
    total: float = 0.0
    maximum: float = 0.0

    def add(self, value: float) -> None:
        """Add one latency sample (seconds)."""
        self.count += 1
        self.total += value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Mean latency (0.0 when no samples were recorded)."""
        return self.total / self.count if self.count else 0.0


def _reduce_by_rank(by_rank: dict[int, LatencyAccumulator]) -> LatencyAccumulator:
    """Fold per-rank accumulators in rank order into one accumulator.

    The float totals add in ascending rank order, so the reduction is
    bit-identical whether the per-rank accumulators were filled by one
    process or merged from per-partition runs (each rank's samples accumulate
    in that rank's own delivery order either way).
    """
    merged = LatencyAccumulator()
    for rank in sorted(by_rank):
        acc = by_rank[rank]
        merged.count += acc.count
        merged.total += acc.total
        if acc.maximum > merged.maximum:
            merged.maximum = acc.maximum
    return merged


@dataclass
class RuntimeStats:
    """Protocol and memory counters for a whole run.

    The transport updates these as it executes sends and receives; the
    analysis layer and the extension benchmarks read them to report protocol
    mix, unexpected-message pressure and end-to-end latency per protocol.

    Latencies are accumulated **per receiving rank** (each rank's samples in
    its own delivery order) and reduced in rank order on read — see
    :func:`_reduce_by_rank`.  This keeps the reported floats bit-identical
    between a single-process run and a parallel run merged from per-partition
    stats, where a single global accumulator would regroup the float sum.
    """

    nprocs: int = 0
    messages_sent: int = 0
    bytes_sent: int = 0
    p2p_messages: int = 0
    collective_messages: int = 0
    eager_messages: int = 0
    rendezvous_messages: int = 0
    #: Messages that would have gone eager under the size rule but were forced
    #: to rendezvous by the flow-control policy (e.g. no credit / no buffer).
    forced_rendezvous: int = 0
    #: Large messages allowed onto the eager path by a predictive policy.
    eager_bypass_large: int = 0
    expected_deliveries: int = 0
    unexpected_deliveries: int = 0
    unexpected_heap_stores: int = 0
    control_messages: int = 0
    eager_latency_by_rank: dict[int, LatencyAccumulator] = field(default_factory=dict)
    rendezvous_latency_by_rank: dict[int, LatencyAccumulator] = field(
        default_factory=dict
    )

    # -- whole-run latency views (reduced in rank order) -----------------
    @property
    def eager_latency(self) -> LatencyAccumulator:
        """Whole-run eager-path latency accumulator (rank-order reduction)."""
        return _reduce_by_rank(self.eager_latency_by_rank)

    @property
    def rendezvous_latency(self) -> LatencyAccumulator:
        """Whole-run rendezvous-path latency accumulator (rank-order reduction)."""
        return _reduce_by_rank(self.rendezvous_latency_by_rank)

    def latency_accumulator(self, protocol: str, rank: int) -> LatencyAccumulator:
        """The accumulator for ``rank``'s deliveries on ``protocol`` (created
        on first use) — the transport holds them on the rank's endpoint."""
        by_rank = (
            self.eager_latency_by_rank
            if protocol == "eager"
            else self.rendezvous_latency_by_rank
        )
        acc = by_rank.get(rank)
        if acc is None:
            acc = by_rank[rank] = LatencyAccumulator()
        return acc

    # ------------------------------------------------------------------
    def record_send(self, nbytes: int, kind: str, protocol: str, forced: bool, bypass: bool) -> None:
        """Record a send decision."""
        self.messages_sent += 1
        self.bytes_sent += int(nbytes)
        if kind == "collective":
            self.collective_messages += 1
        else:
            self.p2p_messages += 1
        if protocol == "eager":
            self.eager_messages += 1
        else:
            self.rendezvous_messages += 1
        if forced:
            self.forced_rendezvous += 1
        if bypass:
            self.eager_bypass_large += 1

    def record_delivery(self, expected: bool, storage: str | None = None) -> None:
        """Record whether a delivery found a posted receive waiting."""
        if expected:
            self.expected_deliveries += 1
        else:
            self.unexpected_deliveries += 1
            if storage == "heap":
                self.unexpected_heap_stores += 1

    def record_control_message(self) -> None:
        """Record one rendezvous RTS/CTS control message."""
        self.control_messages += 1

    # -- parallel-engine merge support ----------------------------------
    def merge_from(self, other: "RuntimeStats") -> None:
        """Fold another partition's stats into this one.

        Integer counters sum exactly; the per-rank latency dicts are disjoint
        across partitions (each receiving rank lives in exactly one), so
        merging them preserves the rank-order reduction bit for bit.
        """
        self.messages_sent += other.messages_sent
        self.bytes_sent += other.bytes_sent
        self.p2p_messages += other.p2p_messages
        self.collective_messages += other.collective_messages
        self.eager_messages += other.eager_messages
        self.rendezvous_messages += other.rendezvous_messages
        self.forced_rendezvous += other.forced_rendezvous
        self.eager_bypass_large += other.eager_bypass_large
        self.expected_deliveries += other.expected_deliveries
        self.unexpected_deliveries += other.unexpected_deliveries
        self.unexpected_heap_stores += other.unexpected_heap_stores
        self.control_messages += other.control_messages
        self.eager_latency_by_rank.update(other.eager_latency_by_rank)
        self.rendezvous_latency_by_rank.update(other.rendezvous_latency_by_rank)

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Return a plain-dict summary suitable for printing or JSON."""
        eager = self.eager_latency
        rendezvous = self.rendezvous_latency
        return {
            "nprocs": self.nprocs,
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "p2p_messages": self.p2p_messages,
            "collective_messages": self.collective_messages,
            "eager_messages": self.eager_messages,
            "rendezvous_messages": self.rendezvous_messages,
            "forced_rendezvous": self.forced_rendezvous,
            "eager_bypass_large": self.eager_bypass_large,
            "expected_deliveries": self.expected_deliveries,
            "unexpected_deliveries": self.unexpected_deliveries,
            "unexpected_heap_stores": self.unexpected_heap_stores,
            "control_messages": self.control_messages,
            "mean_eager_latency": eager.mean,
            "mean_rendezvous_latency": rendezvous.mean,
            "max_eager_latency": eager.maximum,
            "max_rendezvous_latency": rendezvous.maximum,
        }
