"""Network timing model.

The network model answers one question for the transport layer: *when does a
message injected at time ``t`` by rank ``src`` arrive at rank ``dst``?*  The
answer is

``arrival = t + latency + nbytes / bandwidth + jitter (+ contention delay)``

where the jitter term is a half-normal random variable whose scale is a
fraction of the base latency.  This jitter is the reproduction's stand-in for
the paper's "random effects in the physical data transfer between processes,
load balance, network congestion, and so on" (Section 3.1): it perturbs
arrival order between messages from different senders while leaving the
logical program-order stream untouched.

An optional FIFO link-contention model serialises messages that share the
same destination NIC, which increases reordering under heavy fan-in (the IS
benchmark's collective phases).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.util.rng import SeededRNG
from repro.util.validation import check_non_negative, check_positive

__all__ = ["NetworkConfig", "NetworkModel"]


@dataclass(frozen=True)
class NetworkConfig:
    """Parameters of the network model.

    Attributes
    ----------
    latency:
        Base one-way latency in seconds for any message.  ``0`` is allowed
        and models an *ideal* network — used by the scaling benchmarks to
        keep rank clocks in lockstep so timestamp cohorts stay wide.
    bandwidth:
        Link bandwidth in bytes/second (``float("inf")`` is accepted: the
        serialization term becomes exactly zero).
    jitter_sigma:
        Scale of the half-normal per-message jitter, expressed as a fraction
        of ``latency``.  ``0`` gives a perfectly deterministic network, in
        which case the physical stream equals the logical stream.
    contention:
        If True, messages destined to the same rank are serialised through a
        per-destination FIFO channel (models NIC/port contention).
    seed:
        Seed of the jitter random stream.  ``None`` (the default) means "not
        pinned": the simulator and the scenario layer derive it from the run
        seed, so a configuration that only overrides timing parameters still
        follows the experiment's seed.  A standalone :class:`NetworkModel`
        built from an unpinned configuration falls back to seed 0.
    """

    latency: float = 25.0e-6
    bandwidth: float = 300.0e6
    jitter_sigma: float = 0.2
    contention: bool = True
    seed: int | None = None

    def __post_init__(self) -> None:
        check_non_negative("latency", self.latency)
        check_positive("bandwidth", self.bandwidth)
        check_non_negative("jitter_sigma", self.jitter_sigma)

    def with_overrides(self, **kwargs) -> "NetworkConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def noiseless(cls, **kwargs) -> "NetworkConfig":
        """A deterministic network: no jitter, no contention.

        With this configuration the physical message stream observed at a
        receiver is a pure function of the application's communication
        structure, which is useful for unit tests and for isolating the
        effect of noise in the Figure 4 ablations.
        """
        base = dict(jitter_sigma=0.0, contention=False)
        base.update(kwargs)
        return cls(**base)


class NetworkModel:
    """Stateful network timing model (holds the jitter RNG and link queues)."""

    #: Jitter variates prefetched per block; sequence-identical to scalar
    #: draws (numpy array sampling consumes the bit stream the same way).
    _JITTER_BLOCK = 256

    def __init__(self, config: NetworkConfig | None = None, seed: int | None = None) -> None:
        self.config = config or NetworkConfig()
        if seed is not None:
            self.config = self.config.with_overrides(seed=seed)
        self._rng = SeededRNG(
            self.config.seed if self.config.seed is not None else 0, "network"
        )
        # Per-destination time at which the inbound link becomes free again.
        self._link_free_at: dict[int, float] = {}
        self.messages_timed = 0
        self.total_bytes = 0
        self._jitter_buf: list[float] = []
        self._jitter_idx = 0
        # Config fields copied to attributes: read on every timed message.
        cfg = self.config
        self._latency = cfg.latency
        self._bandwidth = cfg.bandwidth
        self._jitter_scale = cfg.jitter_sigma * cfg.latency
        self._contention = cfg.contention
        # Fault-injection hook (set via attach_faults): a callable mapping a
        # simulated time to the transfer-delay multiplier in force then.
        self._degrade_multiplier = None

    def attach_faults(self, injector) -> None:
        """Attach a :class:`repro.sim.faults.FaultInjector` for link degradation.

        Only the degradation model lives here (it scales transfer delays for
        every message, control traffic included); drop/retransmit faults are
        applied by the transport on data payloads.  The injector draws from
        its own seeded streams, so attaching it never perturbs the jitter
        stream — and an injector without an active degradation model is
        ignored entirely.
        """
        if injector is not None and injector.degrade_active:
            self._degrade_multiplier = injector.latency_multiplier

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear link occupancy state and counters (RNG is *not* reseeded)."""
        self._link_free_at.clear()
        self.messages_timed = 0
        self.total_bytes = 0

    def serialization_time(self, nbytes: int) -> float:
        """Time to push ``nbytes`` through the link at full bandwidth."""
        check_non_negative("nbytes", nbytes)
        return nbytes / self.config.bandwidth

    def base_transfer_time(self, nbytes: int) -> float:
        """Deterministic part of the transfer time (latency + serialization)."""
        return self.config.latency + self.serialization_time(nbytes)

    def arrival_time(self, src: int, dst: int, nbytes: int, inject_time: float) -> float:
        """Compute the arrival time of a message injected at ``inject_time``.

        The computation accounts for base latency, serialization at the
        configured bandwidth, random jitter and optional per-destination link
        contention.  Calling this method consumes random numbers, so call
        order matters for reproducibility; the transport calls it exactly
        once per data or control message.
        """
        if inject_time < 0 or nbytes < 0:
            check_non_negative("inject_time", inject_time)
            check_non_negative("nbytes", nbytes)
        serialization = nbytes / self._bandwidth

        jitter_scale = self._jitter_scale
        if jitter_scale <= 0.0:
            jitter = 0.0
        else:
            idx = self._jitter_idx
            buf = self._jitter_buf
            if idx >= len(buf):
                buf = self._jitter_buf = self._rng.jitter_block(
                    jitter_scale, self._JITTER_BLOCK
                )
                idx = 0
            self._jitter_idx = idx + 1
            jitter = buf[idx]

        # Grouping matters: keep (latency + serialization) as one term so the
        # floating-point result is bit-identical to base_transfer_time().
        transfer = self._latency + serialization
        if self._degrade_multiplier is not None:
            transfer = transfer * self._degrade_multiplier(inject_time)
        arrival = inject_time + transfer + jitter

        if self._contention:
            # Serialise through the destination's inbound channel: the message
            # cannot start draining into the destination before the channel is
            # free, and it occupies the channel for its serialization time.
            free_at = self._link_free_at.get(dst, 0.0)
            start = arrival - serialization
            if free_at > start:
                start = free_at
            arrival = start + serialization
            self._link_free_at[dst] = arrival

        self.messages_timed += 1
        self.total_bytes += int(nbytes)
        return arrival

    def min_latency(self) -> float:
        """Smallest delay any message can experience (the conservative lookahead).

        Every arrival computed by :meth:`arrival_time` is at least
        ``inject_time + latency`` (jitter, contention and degradation only
        ever *add* delay; ``degrade_factor`` is validated
        positive and ``>= 1`` in practice).  The parallel engine uses this as
        its lookahead: with a positive minimum latency, a partition may
        advance ``min_latency`` seconds of virtual time without hearing from
        its peers.  A zero-latency network has no lookahead and cannot be
        partitioned conservatively.
        """
        return self._latency

    @property
    def partition_safe(self) -> bool:
        """True when per-partition timing replays the single-process run.

        The parallel engine gives each partition its own network model, so
        any *cross-message* state or shared RNG consumption would diverge
        from the global call order of a single-process run.  Safe means: no
        jitter draws (``jitter_sigma <= 0``) and no per-destination
        contention queues.  An attached link-degradation model is fine — its
        timeline is a pure function of (seed, time), so every partition
        regenerates an identical prefix.
        """
        return self._jitter_scale <= 0.0 and not self._contention

    @property
    def deterministic(self) -> bool:
        """True when :meth:`arrival_time` is a pure function of its arguments.

        Requires no jitter (no RNG consumption), no per-destination
        contention state, and no attached degradation model.  Exactly this
        condition lets the transport's burst send path
        (:meth:`repro.runtime.transport.Transport.post_send_burst`) compute
        ``inject + (latency + nbytes / bandwidth)`` inline, because
        per-message call *order* stops mattering.
        """
        return (
            self._jitter_scale <= 0.0
            and not self._contention
            and self._degrade_multiplier is None
        )
