"""The paper's 19-cell sweep is bit-identical through both front doors.

The objects door is inlined here as a bare ``Simulator``: registry workload,
``NetworkConfig(seed=seed)``, default machine, standard policy, compiled
fast lane.  Everything the analysis layer consumes — traces at both
levels, runtime statistics, makespans, and the stream summaries feeding
Table 1 — must coincide bit for bit with the canonical ``paper_sweep()``
cells run through ``Sweep.run_all()`` and with ``ExperimentContext.run_all``.
"""

import pytest

from repro.analysis.experiments import ExperimentContext, paper_sweep
from repro.sim.engine import Simulator
from repro.sim.network import NetworkConfig
from repro.trace.streams import summarize_stream
from repro.workloads.registry import create_workload, paper_configurations

SCALE = 0.02
SEED = 29


def _legacy_cell(configuration, seed):
    """The pre-redesign per-cell recipe, reproduced verbatim."""
    workload = create_workload(
        configuration.workload, configuration.nprocs, scale=configuration.scale
    )
    simulator = Simulator(
        nprocs=workload.nprocs,
        network=NetworkConfig(seed=seed),
        seed=seed,
    )
    return workload, simulator.run([workload.program_for])


def _columns_tuple(columns):
    return (
        columns.sender_array().tolist(),
        columns.size_array().tolist(),
        columns.tag_array().tolist(),
        columns.time_array().tolist(),
        columns.seq_array().tolist(),
    )


@pytest.fixture(scope="module")
def legacy_runs():
    return [
        _legacy_cell(configuration, SEED)
        for configuration in paper_configurations(scale=SCALE)
    ]


@pytest.fixture(scope="module")
def sweep_results():
    return paper_sweep(seed=SEED, scale=SCALE).run_all()


class TestPaperSweepEquivalence:
    def test_cell_count_and_labels(self, sweep_results):
        configurations = paper_configurations(scale=SCALE)
        assert len(sweep_results) == len(configurations) == 19
        assert [r.label for r in sweep_results] == [c.label for c in configurations]

    def test_makespans_and_stats_bit_identical(self, legacy_runs, sweep_results):
        for (workload, legacy), cell in zip(legacy_runs, sweep_results):
            assert cell.makespan == legacy.makespan
            assert cell.result.rank_finish_times == legacy.rank_finish_times
            assert cell.result.events_processed == legacy.events_processed
            assert cell.stats.summary() == legacy.stats.summary()

    def test_traces_bit_identical_every_rank(self, legacy_runs, sweep_results):
        for (workload, legacy), cell in zip(legacy_runs, sweep_results):
            for rank in range(workload.nprocs):
                assert _columns_tuple(cell.trace(rank).logical) == _columns_tuple(
                    legacy.trace_for(rank).logical
                ), f"{cell.label} rank {rank} logical"
                assert _columns_tuple(cell.trace(rank).physical) == _columns_tuple(
                    legacy.trace_for(rank).physical
                ), f"{cell.label} rank {rank} physical"

    def test_table1_summaries_bit_identical(self, legacy_runs, sweep_results):
        # Table 1 is built from the representative rank's stream summaries;
        # compare them directly (the table is a pure function of these).
        for (workload, legacy), cell in zip(legacy_runs, sweep_results):
            rank = workload.representative_rank()
            assert cell.representative_rank == rank
            for level in ("logical", "physical"):
                assert summarize_stream(cell.records(level, rank)) == summarize_stream(
                    getattr(legacy.trace_for(rank), level)
                ), f"{cell.label} {level}"

    def test_experiment_context_matches_sweep(self, sweep_results):
        context = ExperimentContext(seed=SEED, scale=SCALE)
        for run, cell in zip(context.run_all(), sweep_results):
            assert run.label == cell.label
            assert run.result.makespan == cell.makespan
            assert run.result.stats.summary() == cell.stats.summary()

    def test_context_spec_for_equals_sweep_cells(self):
        context = ExperimentContext(seed=SEED, scale=SCALE)
        assert [
            context.spec_for(configuration) for configuration in context.configurations()
        ] == paper_sweep(seed=SEED, scale=SCALE).expand()
