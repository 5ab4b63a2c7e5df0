"""Tests for the sharded experiment runner (ExperimentContext.run_all(jobs=N)).

The contract: sharding the 19 paper cells over worker processes must be an
implementation detail — every analysis input (traces at both levels, runtime
statistics, makespans, and therefore Table 1 and the Figure 1-4 streams) is
bit-identical to a sequential run.
"""

import pytest

from repro.analysis.experiments import ExperimentContext
from repro.analysis.figures_streams import figure1, figure2
from repro.analysis.table1 import build_table1, render_table1
from repro.scenario import ScenarioResult, Sweep

SCALE = 0.02
SEED = 17


@pytest.fixture(scope="module")
def sequential_context():
    context = ExperimentContext(seed=SEED, scale=SCALE)
    context.run_all()
    return context


@pytest.fixture(scope="module")
def sharded_context():
    context = ExperimentContext(seed=SEED, scale=SCALE)
    context.run_all(jobs=2)
    return context


class TestShardedEquivalence:
    def test_all_cells_present_in_order(self, sharded_context):
        runs = sharded_context.run_all(jobs=2)  # cached: no pool spin-up
        assert [run.label for run in runs] == [
            c.label for c in sharded_context.configurations()
        ]

    def test_traces_bit_identical(self, sequential_context, sharded_context):
        for seq_run, par_run in zip(
            sequential_context.run_all(), sharded_context.run_all()
        ):
            assert seq_run.label == par_run.label
            rank = seq_run.representative_rank
            assert par_run.representative_rank == rank
            assert type(seq_run) is type(par_run) is ScenarioResult
            assert seq_run.records("logical") == par_run.records("logical")
            assert seq_run.records("physical") == par_run.records("physical")

    def test_stats_and_makespans_identical(self, sequential_context, sharded_context):
        for seq_run, par_run in zip(
            sequential_context.run_all(), sharded_context.run_all()
        ):
            assert seq_run.result.makespan == par_run.result.makespan
            assert seq_run.result.rank_finish_times == par_run.result.rank_finish_times
            assert seq_run.result.stats.summary() == par_run.result.stats.summary()
            assert seq_run.result.events_processed == par_run.result.events_processed

    def test_table1_identical(self, sequential_context, sharded_context):
        assert render_table1(build_table1(sequential_context)) == render_table1(
            build_table1(sharded_context)
        )

    def test_figure_streams_identical(self, sequential_context, sharded_context):
        seq_fig1 = figure1(sequential_context)
        par_fig1 = figure1(sharded_context)
        assert seq_fig1.senders.tolist() == par_fig1.senders.tolist()
        assert seq_fig1.sizes.tolist() == par_fig1.sizes.tolist()
        assert seq_fig1.sender_period == par_fig1.sender_period
        seq_fig2 = figure2(sequential_context)
        par_fig2 = figure2(sharded_context)
        assert seq_fig2.logical_senders.tolist() == par_fig2.logical_senders.tolist()
        assert seq_fig2.physical_senders.tolist() == par_fig2.physical_senders.tolist()


class TestShardedCaching:
    def test_cached_cells_are_not_resubmitted(self):
        context = ExperimentContext(seed=SEED, scale=SCALE)
        config = context.configurations()[4]  # a CG cell (cheap)
        warm = context.run(config)
        runs = context.run_all(jobs=2)
        # The pre-warmed run object itself is returned (same identity): the
        # pool only simulated the missing cells.
        assert any(run is warm for run in runs)

    def test_sharded_cache_holds_the_sweep_results_themselves(self, monkeypatch):
        returned = []
        run_all = Sweep.run_all

        def recording(self, **kwargs):
            results = run_all(self, **kwargs)
            returned.extend(results)
            return results

        monkeypatch.setattr(Sweep, "run_all", recording)
        context = ExperimentContext(seed=SEED, scale=SCALE)
        runs = context.run_all(jobs=2)
        assert len(returned) == 19
        assert all(run is cell for run, cell in zip(runs, returned))
        config = context.configurations()[0]
        assert context.run(config) is context.run(config) is runs[0]

    def test_jobs_one_is_sequential(self, sequential_context):
        # jobs=1 takes the in-process path (no pool); cached cells make this
        # a pure wiring check.
        runs = sequential_context.run_all(jobs=1)
        assert len(runs) == 19
