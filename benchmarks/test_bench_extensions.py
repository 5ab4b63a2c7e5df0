"""Benchmarks: the Section 2 what-if experiments (extensions, not paper figures).

The paper proposes three runtime uses of message prediction but never
measures them; these benchmarks regenerate the comparison on the simulated
runtime (results in ``benchmarks/results/extension_*.json``):

* memory reduction through predicted-sender buffer allocation (Section 2.1),
* credit-based flow control driven by predictions (Section 2.2),
* rendezvous bypass for predicted long messages (Section 2.3).
"""

from __future__ import annotations

import json

from repro.analysis.extensions import (
    credit_flow_experiment,
    memory_reduction_experiment,
    rendezvous_bypass_experiment,
)

from .conftest import write_result


def test_bench_memory_reduction(benchmark, results_dir):
    outcome = benchmark.pedantic(
        memory_reduction_experiment,
        kwargs=dict(workload_name="bt", nprocs=16, scale=0.25, seed=2003),
        rounds=1,
        iterations=1,
    )
    write_result(results_dir, "extension_memory.json", json.dumps(outcome, indent=2))

    # The predictive runtime commits less buffer memory per rank than the
    # all-peers pre-allocation, with a bounded slowdown from early misses.
    assert outcome["predictive_peak_buffer_bytes_per_rank"] < outcome["baseline_buffer_bytes_per_rank"]
    assert outcome["memory_reduction_factor"] > 1.0
    assert outcome["eager_hits"] > outcome["eager_misses"]
    assert outcome["slowdown"] < 2.0


def test_bench_credit_flow(benchmark, results_dir):
    outcome = benchmark.pedantic(
        credit_flow_experiment,
        kwargs=dict(workload_name="collective-storm", nprocs=16, scale=1.0, seed=2003),
        rounds=1,
        iterations=1,
    )
    write_result(results_dir, "extension_credits.json", json.dumps(outcome, indent=2))

    # The receiver's exposure is bounded by the credit cap, and most eager
    # sends are covered by prediction-granted credits once the pattern is
    # learned.
    assert outcome["max_outstanding_credit_bytes"] <= outcome["credit_cap_bytes"]
    assert outcome["eager_granted"] > outcome["eager_denied"]
    assert outcome["slowdown"] < 2.0


def test_bench_rendezvous_bypass(benchmark, results_dir):
    outcome = benchmark.pedantic(
        rendezvous_bypass_experiment,
        kwargs=dict(workload_name="ring-exchange", nprocs=8, scale=1.0, seed=2003),
        rounds=1,
        iterations=1,
    )
    write_result(results_dir, "extension_rendezvous.json", json.dumps(outcome, indent=2))

    # Predicted long messages take the fast path: fewer rendezvous handshakes,
    # lower long-message latency, overall speedup over the baseline.
    assert outcome["predictive_rendezvous_messages"] < outcome["baseline_rendezvous_messages"]
    assert outcome["bypass_rate"] > 0.5
    assert outcome["predictive_mean_eager_latency"] < outcome["baseline_mean_rendezvous_latency"]
    assert outcome["speedup_vs_baseline"] > 1.0
    # The always-rendezvous extreme is the slowest of the three runs.
    assert outcome["always_rendezvous_makespan"] >= outcome["baseline_makespan"]
