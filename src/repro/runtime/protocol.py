"""Flow-control policies: who may use the eager (fast) path, and when.

The transport asks its policy two questions:

* :meth:`FlowControlPolicy.allows_eager` — may this message skip the
  rendezvous handshake?  The standard policy answers "yes iff the message is
  small" (classic MPICH behaviour, Section 2.2/2.3 of the paper); the
  predictive policies in :mod:`repro.predictive` answer based on credits
  granted from predictions.
* :meth:`FlowControlPolicy.on_burst_delivered` — the notification the
  predictive policies use to learn the message stream and refresh grants.
  The transport calls it once per consecutive run of deliveries to one rank
  at one timestamp, a run of one included; the default replays
  :meth:`FlowControlPolicy.on_message_delivered` per message, so a policy
  may override either hook.

Policies never touch timing; they only steer protocol selection and buffer
allocation, so the same transport code exercises both the baseline and the
prediction-driven runtime.
"""

from __future__ import annotations

from repro.sim.machine import MachineConfig

__all__ = ["FlowControlPolicy", "StandardFlowControl", "AlwaysRendezvousFlowControl"]


class FlowControlPolicy:
    """Interface for eager/rendezvous protocol selection."""

    #: Human-readable policy name used in stats and benchmark output.
    name: str = "abstract"

    #: Whether the policy's decisions depend only on the *sender-local* view.
    #: The parallel engine evaluates :meth:`allows_eager` on the sending
    #: partition; a policy whose answer consults receiver-side state it
    #: learns from deliveries (the predictive policies) would read a stale
    #: replica there, so such policies must keep the default ``False`` and
    #: the parallel engine falls back to the in-process drain for them.
    #: Policies whose answer is a pure function of the call arguments (plus
    #: immutable machine config) may set ``True``.
    partition_safe: bool = False

    def bind(self, machine: MachineConfig, nprocs: int) -> None:
        """Called once by the transport before the simulation starts."""
        self.machine = machine
        self.nprocs = nprocs

    # -- decisions ---------------------------------------------------------
    def allows_eager(self, src: int, dst: int, nbytes: int, kind: str, now: float) -> bool:
        """Whether the message may be sent on the eager path."""
        raise NotImplementedError

    def preallocate_peers(self, rank: int) -> list[int] | None:
        """Peers for which ``rank`` should pre-allocate eager buffers.

        ``None`` means "use the machine default" (all peers when
        ``preallocate_all_peers`` is set).  The predictive buffer manager
        returns only the predicted senders.
        """
        return None

    # -- notifications -------------------------------------------------------
    def on_message_delivered(
        self, dst: int, src: int, nbytes: int, tag: int, kind: str, now: float
    ) -> None:
        """A message was delivered to ``dst`` (called by the default
        :meth:`on_burst_delivered`, once per message)."""

    def on_burst_delivered(
        self, dst: int, messages: list[tuple[int, int, int, str]], now: float
    ) -> None:
        """Messages were delivered to ``dst`` at ``now``.

        The transport's only delivery hook: one call per consecutive
        same-timestamp run of deliveries to ``dst``, a run of one included.
        ``messages`` holds ``(src, nbytes, tag, kind)`` tuples in delivery
        order.  The default replays :meth:`on_message_delivered` per
        message; the predictive policies override this to push the whole
        run through their predictors' amortised batch-observe path.
        """
        for src, nbytes, tag, kind in messages:
            self.on_message_delivered(dst, src, nbytes, tag, kind, now)


class StandardFlowControl(FlowControlPolicy):
    """The classic MPI policy: eager for small messages, rendezvous for large.

    This is the baseline whose scalability problems the paper describes —
    short messages are sent without asking, long messages always pay the
    rendezvous handshake.
    """

    name = "standard"
    partition_safe = True

    def allows_eager(self, src: int, dst: int, nbytes: int, kind: str, now: float) -> bool:
        return nbytes <= self.machine.eager_threshold


class AlwaysRendezvousFlowControl(FlowControlPolicy):
    """A conservative policy that forces every message through rendezvous.

    Useful as the "fully flow-controlled, never runs out of memory, always
    slow" extreme in the latency benchmarks.
    """

    name = "always-rendezvous"
    partition_safe = True

    def allows_eager(self, src: int, dst: int, nbytes: int, kind: str, now: float) -> bool:
        return False
