"""Benchmarks: ablations around the paper's design choices (``benchmarks/results/ablation_*``).

* DPD window size — learning speed vs noise robustness;
* network jitter — how physical-level accuracy decays with timing noise
  (the paper's explanation of Figure 4);
* predictor vs the related-work single-step heuristics;
* ordered vs multiset accuracy (the Section 5.3 argument).
"""

from __future__ import annotations

import json

from repro.analysis.ablations import (
    baseline_comparison,
    jitter_sensitivity,
    unordered_accuracy_study,
    window_size_sweep,
)

from .conftest import write_result


def test_bench_window_size_sweep(benchmark, paper_context, results_dir):
    paper_context.run_named("bt", 9)
    rows = benchmark.pedantic(
        window_size_sweep,
        kwargs=dict(windows=(8, 16, 24, 32, 64, 128), context=paper_context),
        rounds=1,
        iterations=1,
    )
    write_result(results_dir, "ablation_window.json", json.dumps(rows, indent=2))

    by_window = {row["window_size"]: row for row in rows}
    # Logical accuracy is high for every reasonable window; very large windows
    # pay a longer learning phase, so they cannot beat the short ones.
    assert by_window[24]["logical_accuracy"] > 80.0
    assert by_window[128]["logical_accuracy"] <= by_window[16]["logical_accuracy"] + 1.0
    # Physical accuracy suffers with very large windows (exact-match detection
    # almost never fires once a single perturbed sample poisons the window).
    assert by_window[128]["physical_accuracy"] <= by_window[24]["physical_accuracy"] + 1.0


def test_bench_jitter_sensitivity(benchmark, results_dir):
    rows = benchmark.pedantic(
        jitter_sensitivity,
        kwargs=dict(jitters=(0.0, 0.08, 0.25, 1.0), nprocs=9, scale=0.25, seed=2003),
        rounds=1,
        iterations=1,
    )
    write_result(results_dir, "ablation_jitter.json", json.dumps(rows, indent=2))

    by_jitter = {row["jitter_sigma"]: row for row in rows}
    # Without jitter only a tiny deterministic skew remains; reordering grows
    # substantially once random jitter is added.
    assert by_jitter[0.0]["reordered_fraction"] < 0.02
    assert by_jitter[1.0]["reordered_fraction"] > 3 * by_jitter[0.0]["reordered_fraction"]
    # Logical accuracy is unaffected by jitter; physical accuracy decays.
    assert abs(by_jitter[0.0]["logical_accuracy"] - by_jitter[1.0]["logical_accuracy"]) < 5.0
    assert by_jitter[1.0]["physical_accuracy"] < by_jitter[0.0]["physical_accuracy"]


def test_bench_baseline_comparison(benchmark, paper_context, results_dir):
    paper_context.run_named("bt", 9)
    rows = benchmark.pedantic(
        baseline_comparison,
        kwargs=dict(workload="bt", nprocs=9, context=paper_context),
        rounds=1,
        iterations=1,
    )
    write_result(results_dir, "ablation_baselines.json", json.dumps(rows, indent=2))

    accuracy = {row["predictor"]: row for row in rows}
    paper = accuracy["periodicity (paper)"]
    # The periodicity predictor dominates the single-step heuristics at the
    # five-step horizon — the paper's argument for periodicity detection over
    # next-value heuristics and Markov models.
    for name in ("last-value", "most-frequent", "markov(2)"):
        assert paper["accuracy_plus5"] >= accuracy[name]["accuracy_plus5"]
    # And it does not degrade between +1 and +5.
    assert paper["accuracy_plus5"] >= paper["accuracy_plus1"] - 2.0


def test_bench_unordered_accuracy(benchmark, paper_context, results_dir):
    for workload, nprocs in (("bt", 9), ("is", 8), ("lu", 8)):
        paper_context.run_named(workload, nprocs)
    rows = benchmark.pedantic(
        unordered_accuracy_study,
        kwargs=dict(configurations=(("bt", 9), ("is", 8), ("lu", 8)), context=paper_context),
        rounds=1,
        iterations=1,
    )
    write_result(results_dir, "ablation_unordered.json", json.dumps(rows, indent=2))

    for row in rows:
        # Knowing the *set* of upcoming senders is never harder than knowing
        # their exact order (Section 5.3).
        assert row["unordered_overlap"] >= row["ordered_accuracy"] - 1e-9
    # For BT, whose physical stream suffers local reorderings of an otherwise
    # periodic pattern, the multiset view recovers a large part of the loss.
    bt_row = next(row for row in rows if row["config"].startswith("bt."))
    assert bt_row["unordered_overlap"] > bt_row["ordered_accuracy"] + 5.0
