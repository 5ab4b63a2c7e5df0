"""Per-node cost model and runtime protocol parameters.

The values loosely follow a LogGP-style decomposition of an early-2000s
IBM SP-class machine (the paper's testbed): a fixed per-message CPU overhead
on each side, a network latency, a per-byte cost, and an eager/rendezvous
protocol switch around 16 KB (the IBM MPI eager buffer size quoted in the
paper's Section 2.1).  Absolute values only matter relative to each other —
the paper never reports wall-clock numbers — so they are chosen to be
realistic in ratio: overhead << latency << large-message transfer time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.util.validation import check_non_negative, check_positive

__all__ = ["MachineConfig"]


@dataclass(frozen=True)
class MachineConfig:
    """Cost and protocol parameters for every simulated node.

    Attributes
    ----------
    send_overhead:
        CPU time (seconds) a rank spends initiating any send.
    recv_overhead:
        CPU time a rank spends completing any receive.
    eager_threshold:
        Messages of at most this many bytes use the eager protocol; larger
        ones use rendezvous (unless a predictive bypass is active).
    eager_buffer_bytes:
        Size of the per-peer eager buffer each rank pre-allocates for each
        other rank (16 KB in the IBM MPI implementation cited by the paper).
    preallocate_all_peers:
        If True (the default, mirroring standard MPI implementations), every
        rank allocates an eager buffer for every other rank at startup.  The
        predictive buffer manager turns this off and allocates on demand.
    control_message_bytes:
        Size used for rendezvous RTS/CTS control messages.
    rendezvous_handshake_cpu:
        CPU time spent by each side processing a rendezvous control message.
    unexpected_copy_bandwidth:
        Bytes/second for copying an unexpected eager message out of the
        receive buffer once the matching receive is finally posted.
    """

    send_overhead: float = 2.0e-6
    recv_overhead: float = 2.0e-6
    eager_threshold: int = 16 * 1024
    eager_buffer_bytes: int = 16 * 1024
    preallocate_all_peers: bool = True
    control_message_bytes: int = 64
    rendezvous_handshake_cpu: float = 1.0e-6
    unexpected_copy_bandwidth: float = 2.0e9

    def __post_init__(self) -> None:
        check_non_negative("send_overhead", self.send_overhead)
        check_non_negative("recv_overhead", self.recv_overhead)
        check_non_negative("eager_threshold", self.eager_threshold)
        check_positive("eager_buffer_bytes", self.eager_buffer_bytes)
        check_positive("control_message_bytes", self.control_message_bytes)
        check_non_negative("rendezvous_handshake_cpu", self.rendezvous_handshake_cpu)
        check_positive("unexpected_copy_bandwidth", self.unexpected_copy_bandwidth)

    def with_overrides(self, **kwargs) -> "MachineConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)
