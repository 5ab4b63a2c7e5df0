"""Wire message record used by the transport."""

from __future__ import annotations

from dataclasses import dataclass

from repro.mpi.constants import KIND_P2P

__all__ = ["Message"]


@dataclass(slots=True)
class Message:
    """One application-level message in flight.

    Attributes
    ----------
    src, dst:
        Sending and receiving ranks.
    tag:
        MPI tag (collective-internal tags live above ``COLLECTIVE_TAG_BASE``).
    nbytes:
        Payload size in bytes.
    kind:
        ``"p2p"`` or ``"collective"``.
    protocol:
        ``"eager"`` or ``"rendezvous"`` — chosen by the transport when the
        send is posted (and possibly forced to rendezvous by flow control).
    inject_time:
        Time the payload was injected into the network (eager) or the RTS was
        sent (rendezvous).
    arrival_time:
        Time the payload arrived at the destination (filled by the transport).
    duplicate:
        True for a fault-injected duplicate copy (a spurious retransmission
        whose original also arrived): the transport traces it and shows it to
        the flow-control policy, but never matches it to a posted receive.
    """

    src: int
    dst: int
    tag: int
    nbytes: int
    kind: str = KIND_P2P
    protocol: str = "eager"
    inject_time: float = 0.0
    arrival_time: float = float("nan")
    duplicate: bool = False

    def envelope(self) -> tuple[int, int, int]:
        """The matching envelope ``(src, dst, tag)``."""
        return (self.src, self.dst, self.tag)
