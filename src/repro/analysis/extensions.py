"""Section 2 what-if experiments: using prediction inside the runtime.

The paper motivates prediction with three scalability problems but only
evaluates prediction accuracy.  These experiments close the loop on the
simulated runtime: each runs the same workload under the standard policy and
under the corresponding predictive policy and reports the memory / protocol /
latency effects.  They are indexed in DESIGN.md as extensions (not paper
figures) and are regenerated by ``benchmarks/test_bench_extensions.py``.
"""

from __future__ import annotations

from repro.predictive.buffer_manager import PredictiveBufferPolicy
from repro.predictive.credit_policy import PredictiveCreditPolicy
from repro.predictive.rendezvous_bypass import PredictiveRendezvousPolicy
from repro.runtime.protocol import AlwaysRendezvousFlowControl, StandardFlowControl
from repro.sim.engine import Simulator
from repro.sim.machine import MachineConfig
from repro.sim.network import NetworkConfig
from repro.workloads.registry import create_workload

__all__ = [
    "memory_reduction_experiment",
    "credit_flow_experiment",
    "rendezvous_bypass_experiment",
]


def _run(workload_name: str, nprocs: int, scale: float, seed: int, policy, machine=None, **kwargs):
    workload = create_workload(workload_name, nprocs, scale=scale, **kwargs)
    # The callers read ``policy.memory_summary()`` and friends after the run,
    # so they hold the policy object and build the simulator themselves.
    result = Simulator(
        nprocs=workload.nprocs,
        seed=seed,
        network=NetworkConfig(seed=seed),
        machine=machine,
        policy=policy,
    ).run([workload.program_for])
    return workload, result


def memory_reduction_experiment(
    workload_name: str = "bt",
    nprocs: int = 16,
    scale: float = 0.25,
    seed: int = 2003,
    horizon: int = 5,
) -> dict:
    """Section 2.1: per-peer buffers for everyone vs only for predicted senders.

    Returns a dictionary with the baseline per-rank buffer memory (all peers
    pre-allocated), the predictive policy's peak per-rank buffer memory, the
    reduction factor, the eager hit/miss counts and the slowdown of the
    predictive run relative to the baseline.
    """
    _, baseline = _run(workload_name, nprocs, scale, seed, StandardFlowControl())
    policy = PredictiveBufferPolicy(horizon=horizon)
    _, predictive = _run(workload_name, nprocs, scale, seed, policy)

    baseline_bytes = max(s.preallocated_bytes for s in baseline.buffer_stats)
    summary = policy.memory_summary()
    return {
        "workload": workload_name,
        "nprocs": nprocs,
        "baseline_buffer_bytes_per_rank": baseline_bytes,
        "predictive_peak_buffer_bytes_per_rank": summary["max_peak_bytes_per_rank"],
        "memory_reduction_factor": baseline_bytes / max(summary["max_peak_bytes_per_rank"], 1),
        "eager_hits": summary["eager_hits"],
        "eager_misses": summary["eager_misses"],
        "baseline_forced_rendezvous": baseline.stats.forced_rendezvous,
        "predictive_forced_rendezvous": predictive.stats.forced_rendezvous,
        "baseline_makespan": baseline.makespan,
        "predictive_makespan": predictive.makespan,
        "slowdown": predictive.makespan / baseline.makespan if baseline.makespan else 1.0,
    }


def credit_flow_experiment(
    workload_name: str = "collective-storm",
    nprocs: int = 16,
    scale: float = 1.0,
    seed: int = 2003,
    horizon: int = 5,
) -> dict:
    """Section 2.2: unsolicited eager fan-in vs prediction-granted credits.

    The metric the paper cares about is the receiver's exposure to unexpected
    messages: under the standard policy every peer may push eagerly and
    unexpected messages pile up (potentially into heap memory); under the
    credit policy only predicted senders may send eagerly, so the exposure is
    bounded by the outstanding credit.
    """
    _, baseline = _run(workload_name, nprocs, scale, seed, StandardFlowControl())
    policy = PredictiveCreditPolicy(horizon=horizon)
    _, predictive = _run(workload_name, nprocs, scale, seed, policy)

    exposure = policy.exposure_summary()
    return {
        "workload": workload_name,
        "nprocs": nprocs,
        "baseline_unexpected_deliveries": baseline.stats.unexpected_deliveries,
        "baseline_unexpected_heap_stores": baseline.stats.unexpected_heap_stores,
        "predictive_unexpected_deliveries": predictive.stats.unexpected_deliveries,
        "predictive_unexpected_heap_stores": predictive.stats.unexpected_heap_stores,
        "eager_granted": exposure["eager_granted"],
        "eager_denied": exposure["eager_denied"],
        "max_outstanding_credit_bytes": exposure["max_outstanding_credit_bytes"],
        "credit_cap_bytes": exposure["credit_cap_bytes"],
        "baseline_makespan": baseline.makespan,
        "predictive_makespan": predictive.makespan,
        "slowdown": predictive.makespan / baseline.makespan if baseline.makespan else 1.0,
    }


def rendezvous_bypass_experiment(
    workload_name: str = "cg",
    nprocs: int = 8,
    scale: float = 0.25,
    seed: int = 2003,
    horizon: int = 5,
) -> dict:
    """Section 2.3: rendezvous for every long message vs predictive bypass.

    Compares three runs: the standard policy (long messages use rendezvous),
    the predictive bypass (predicted long messages go eager) and the
    always-rendezvous extreme.  Reports protocol mixes, mean long-message
    latencies and makespans.
    """
    _, baseline = _run(workload_name, nprocs, scale, seed, StandardFlowControl())
    policy = PredictiveRendezvousPolicy(horizon=horizon)
    _, predictive = _run(workload_name, nprocs, scale, seed, policy)
    _, conservative = _run(workload_name, nprocs, scale, seed, AlwaysRendezvousFlowControl())

    bypass = policy.bypass_summary()
    return {
        "workload": workload_name,
        "nprocs": nprocs,
        "baseline_rendezvous_messages": baseline.stats.rendezvous_messages,
        "predictive_rendezvous_messages": predictive.stats.rendezvous_messages,
        "bypassed_long_messages": predictive.stats.eager_bypass_large,
        "bypass_rate": bypass["bypass_rate"],
        "baseline_mean_rendezvous_latency": baseline.stats.rendezvous_latency.mean,
        "baseline_mean_eager_latency": baseline.stats.eager_latency.mean,
        "predictive_mean_rendezvous_latency": predictive.stats.rendezvous_latency.mean,
        "predictive_mean_eager_latency": predictive.stats.eager_latency.mean,
        "baseline_makespan": baseline.makespan,
        "predictive_makespan": predictive.makespan,
        "always_rendezvous_makespan": conservative.makespan,
        "speedup_vs_baseline": baseline.makespan / predictive.makespan if predictive.makespan else 1.0,
    }
