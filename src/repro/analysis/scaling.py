"""Scalability projections (the paper's introduction arithmetic, generalised).

The paper motivates prediction with a projection: with one 16 KB eager buffer
per peer, a 10 000-process job needs 160 MB of buffer memory *per process*.
This module turns that back-of-the-envelope argument into a small model fed
with measured data:

* :func:`project_buffer_memory` — per-process eager-buffer memory as a
  function of the job size, for the standard all-peers policy versus a
  predictive policy that only keeps buffers for the senders a process
  actually hears from (taken from a measured run or given explicitly);
* :func:`project_unexpected_exposure` — worst-case unexpected-message memory
  at a fan-in receiver under unsolicited eager sends versus credit-bounded
  sends.

These projections are an extension (the paper never evaluates them); they are
exercised by ``benchmarks/test_bench_scaling.py`` and the tests.

The module also hosts :func:`lockstep_scale_configs`, the machine/network
configuration pair under which the engine scaling rows
(``benchmarks/test_bench_scale.py``) run thousand-rank simulations; what
``engine="auto"`` gains at 256 ranks is read from ``bench/run.py``'s traced
probe ``sim.auto_vs_scalar`` (see ``repro.sim.engine._VECTOR_MIN_COHORT``):
about 2x under this pair (``sim-lockstep-bt``), about parity under the
default presets (``sim-wavefront-lu``), where a wavefront's lone steps build
no cohort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.sim.machine import MachineConfig
from repro.sim.network import NetworkConfig
from repro.util.text import ascii_table
from repro.util.validation import check_non_negative, check_positive

__all__ = [
    "BufferMemoryProjection",
    "lockstep_scale_configs",
    "partitioned_scale_configs",
    "project_buffer_memory",
    "project_unexpected_exposure",
    "render_projection_table",
    "working_set_from_run",
]


def lockstep_scale_configs() -> tuple[MachineConfig, NetworkConfig]:
    """Machine/network pair used by the engine scaling benchmarks.

    An *ideal* zero-latency, infinite-bandwidth, noiseless network plus a
    zero-overhead machine keeps every rank's clock in lockstep: all ranks
    reach iteration boundaries at identical timestamps, so the event queue's
    timestamp cohorts stay as wide as the job (thousands of same-time step
    events).  Wide cohorts are exactly what ``engine="auto"`` batches
    over — under a realistic positive-latency configuration the stencil
    workloads pipeline into a wavefront and cohorts collapse towards size 1,
    which measures dispatch overhead rather than batch throughput.

    The eager threshold and buffer are raised so that stencil halo exchanges
    stay on the eager path (the burst send pass's widest lane) instead
    of falling back to rendezvous control traffic.
    """
    machine = MachineConfig(
        recv_overhead=0.0,
        eager_threshold=1 << 20,
        eager_buffer_bytes=1 << 22,
        preallocate_all_peers=False,
    )
    network = NetworkConfig(
        latency=0.0, bandwidth=float("inf"), jitter_sigma=0.0, contention=False
    )
    return machine, network


def partitioned_scale_configs() -> tuple[MachineConfig, NetworkConfig]:
    """Machine/network pair for the *partitioned* scaling benchmarks.

    Identical to :func:`lockstep_scale_configs` except for one thing: the
    network carries a small positive latency (2 µs, still effectively
    instantaneous next to the workloads' compute phases).  A partitioned run
    (``engine_jobs`` of 2 and up) derives its lookahead from the minimum
    link latency, so
    the lockstep pair's zero-latency ideal network gives it nothing to
    partition with — while a noiseless positive-latency network keeps the
    ranks in near-lockstep (wide cohorts for each partition's ``auto``
    drain) *and* opens a usable conservative window.
    """
    machine = MachineConfig(
        recv_overhead=0.0,
        eager_threshold=1 << 20,
        eager_buffer_bytes=1 << 22,
        preallocate_all_peers=False,
    )
    network = NetworkConfig(
        latency=2e-6, bandwidth=float("inf"), jitter_sigma=0.0, contention=False
    )
    return machine, network


@dataclass(frozen=True)
class BufferMemoryProjection:
    """Projected per-process eager-buffer memory at one job size."""

    nprocs: int
    baseline_bytes: int
    predictive_bytes: int

    @property
    def reduction_factor(self) -> float:
        """How many times less memory the predictive policy commits."""
        return self.baseline_bytes / max(self.predictive_bytes, 1)


def working_set_from_run(result, rank: int, extra_recent: int = 2) -> int:
    """Measured sender working set of ``rank`` in a simulation result.

    The working set is the number of distinct senders the rank receives from
    (its "communication locality", in the terminology of the related work the
    paper cites), plus the small victim cache the predictive buffer manager
    keeps.  This is the quantity that stays (nearly) constant as the job
    grows, which is exactly why predicted-sender buffering scales.
    """
    from repro.trace.streams import summarize_stream

    summary = summarize_stream(result.trace_for(rank).logical)
    return summary.num_distinct_senders + extra_recent


def project_buffer_memory(
    process_counts: Sequence[int],
    working_set: int,
    machine: MachineConfig | None = None,
) -> list[BufferMemoryProjection]:
    """Project per-process buffer memory for the given job sizes.

    Parameters
    ----------
    process_counts:
        Job sizes to project to (e.g. ``[64, 1024, 10_000]`` — the last one
        is the paper's Blue Gene example).
    working_set:
        Number of per-peer buffers the predictive policy keeps (from
        :func:`working_set_from_run` or chosen analytically).
    machine:
        Supplies the per-peer buffer size (16 KB by default, as in the paper).
    """
    check_positive("working_set", working_set)
    machine = machine or MachineConfig()
    projections = []
    for nprocs in process_counts:
        check_positive("nprocs", nprocs)
        baseline = (nprocs - 1) * machine.eager_buffer_bytes
        predictive = min(working_set, nprocs - 1) * machine.eager_buffer_bytes
        projections.append(
            BufferMemoryProjection(
                nprocs=int(nprocs), baseline_bytes=baseline, predictive_bytes=predictive
            )
        )
    return projections


def project_unexpected_exposure(
    process_counts: Sequence[int],
    message_bytes: int,
    messages_per_sender: int = 1,
    credit_cap_bytes: int = 64 * 1024,
) -> list[dict]:
    """Worst-case unexpected-message memory at a fan-in receiver.

    Under the standard policy every peer may push ``messages_per_sender``
    eager messages of ``message_bytes`` without asking (Section 2.2's
    out-of-memory scenario); under credit flow control the exposure per peer
    is bounded by the outstanding credit.
    """
    check_non_negative("message_bytes", message_bytes)
    check_positive("messages_per_sender", messages_per_sender)
    check_positive("credit_cap_bytes", credit_cap_bytes)
    rows = []
    for nprocs in process_counts:
        check_positive("nprocs", nprocs)
        peers = nprocs - 1
        unsolicited = peers * messages_per_sender * message_bytes
        credited = peers * min(credit_cap_bytes, messages_per_sender * message_bytes)
        rows.append(
            {
                "nprocs": int(nprocs),
                "unsolicited_bytes": int(unsolicited),
                "credit_bounded_bytes": int(credited),
                "credit_cap_bytes": int(credit_cap_bytes),
            }
        )
    return rows


def render_projection_table(projections: Sequence[BufferMemoryProjection]) -> str:
    """Render buffer-memory projections as an ASCII table (MB figures)."""
    headers = ["nprocs", "baseline MB/process", "predictive MB/process", "reduction"]
    rows = [
        [
            p.nprocs,
            p.baseline_bytes / (1024 * 1024),
            p.predictive_bytes / (1024 * 1024),
            p.reduction_factor,
        ]
        for p in projections
    ]
    return ascii_table(
        headers,
        rows,
        title="Projected per-process eager-buffer memory (Section 2.1 arithmetic)",
    )
