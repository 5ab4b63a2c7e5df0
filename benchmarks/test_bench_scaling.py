"""Benchmark: scalability projection of the Section 2.1 memory argument.

Extension artefact (``benchmarks/results/scaling_projection.*``): feed the
measured sender working set of a BT process into the paper's introduction
arithmetic and project per-process eager-buffer memory out to Blue Gene scale
(10 000 processes), for the standard all-peers policy versus predicted-sender
buffering.
"""

from __future__ import annotations

import json

from repro.analysis.scaling import (
    project_buffer_memory,
    render_projection_table,
    working_set_from_run,
)

from .conftest import write_result

PROCESS_COUNTS = (16, 64, 256, 1024, 10_000)


def test_bench_scaling_projection(benchmark, paper_context, results_dir):
    run = paper_context.run_named("bt", 16)
    working_set = working_set_from_run(run.result, run.representative_rank)

    projections = benchmark(project_buffer_memory, PROCESS_COUNTS, working_set)

    write_result(results_dir, "scaling_projection.txt", render_projection_table(projections))
    write_result(
        results_dir,
        "scaling_projection.json",
        json.dumps(
            [
                {
                    "nprocs": p.nprocs,
                    "baseline_bytes": p.baseline_bytes,
                    "predictive_bytes": p.predictive_bytes,
                }
                for p in projections
            ],
            indent=2,
        ),
    )

    by_nprocs = {p.nprocs: p for p in projections}
    # The paper's headline number: ~160 MB per process at 10 000 ranks.
    assert by_nprocs[10_000].baseline_bytes > 150 * 1024 * 1024
    # Predicted-sender buffering keeps the per-process memory flat (the
    # working set of a BT process does not grow with the job).
    assert by_nprocs[10_000].predictive_bytes == by_nprocs[1024].predictive_bytes
    assert by_nprocs[10_000].reduction_factor > 100
