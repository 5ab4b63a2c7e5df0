"""The paper's 19 cells are bit-identical through every door that runs them.

One small grid, at one seed, goes through three doors:

* a bare ``Simulator`` — registry workload, ``NetworkConfig(seed=seed)``,
  default machine, standard policy, compiled lanes;
* a sequential :class:`ExperimentContext`;
* ``ExperimentContext.run_all(jobs=2)``, which shards the uncached cells
  through ``Sweep.run_all`` over two worker processes.

Everything the analysis layer consumes — traces at both levels, runtime
statistics, makespans, the stream summaries feeding Table 1 and the Figure
1-2 streams — must coincide bit for bit, and so must the report sections
built from either context.  Both contexts also hold a
generator-protocol cell next to the compiled paper cells, which must merge
the same way.  The sharded context was warmed with one paper cell before
``run_all``, so it also pins the cache: warmed cells are not resubmitted and
the cache holds the sweep's result objects themselves.
"""

import pytest

from cells import fingerprint
from repro.analysis.experiments import ExperimentContext, paper_sweep
from repro.analysis.figures_streams import figure1, figure2
from repro.analysis.report import build_report
from repro.analysis.table1 import build_table1, render_table1
from repro.scenario import ScenarioResult, Sweep
from repro.sim.engine import Simulator
from repro.sim.network import NetworkConfig
from repro.trace.streams import summarize_stream
from repro.workloads.registry import create_workload

SCALE = 0.02
SEED = 29
#: The paper cell warmed into the sharded context before ``run_all``.
WARMED = 4  # cg.4, a cheap cell


def _bare_cell(configuration):
    """The per-cell recipe without the scenario layer."""
    workload = create_workload(
        configuration.workload, configuration.nprocs, scale=configuration.scale
    )
    simulator = Simulator(
        nprocs=workload.nprocs, network=NetworkConfig(seed=SEED), seed=SEED
    )
    return workload, simulator.run([workload.program_for])


def _context():
    context = ExperimentContext(seed=SEED, scale=SCALE)
    # A dynamic (generator-protocol) cell next to the 19 compiled ones.
    context.run_named("random-sender", 4)
    return context


def _columns(columns):
    return (
        columns.sender_array().tolist(),
        columns.size_array().tolist(),
        columns.tag_array().tolist(),
        columns.time_array().tolist(),
        columns.seq_array().tolist(),
    )


@pytest.fixture(scope="module")
def bare():
    return [_bare_cell(c) for c in ExperimentContext(seed=SEED, scale=SCALE).configurations()]


@pytest.fixture(scope="module")
def sequential():
    context = _context()
    context.run_all()
    return context


@pytest.fixture(scope="module")
def sharded():
    """The jobs=2 context, its runs, its warmed run and what each sweep returned."""
    context = _context()
    warm = context.run(context.configurations()[WARMED])
    sweeps = []
    run_all = Sweep.run_all

    def recording(self, **kwargs):
        results = run_all(self, **kwargs)
        sweeps.append(results)
        return results

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Sweep, "run_all", recording)
        runs = context.run_all(jobs=2)
        # A second call finds every cell cached and starts no pool.
        again = context.run_all(jobs=2)
    assert len(sweeps) == 1
    assert all(a is b for a, b in zip(again, runs))
    return context, runs, warm, sweeps[0]


class TestDoorsAgree:
    def test_cells_in_order(self, bare, sequential, sharded):
        labels = [c.label for c in sequential.configurations()]
        assert len(labels) == 19
        assert [run.label for run in sequential.run_all()] == labels
        assert [run.label for run in sharded[1]] == labels
        assert [workload.name for workload, _ in bare] == [
            c.workload for c in sequential.configurations()
        ]

    def test_makespans_and_stats_bit_identical(self, bare, sequential, sharded):
        for (_, result), seq_run, par_run in zip(bare, sequential.run_all(), sharded[1]):
            assert type(seq_run) is type(par_run) is ScenarioResult
            for run in (seq_run.result, par_run.result):
                assert run.makespan == result.makespan
                assert run.rank_finish_times == result.rank_finish_times
                assert run.events_processed == result.events_processed
                assert run.stats.summary() == result.stats.summary()

    def test_traces_bit_identical_every_rank(self, bare, sequential, sharded):
        for (workload, result), seq_run, par_run in zip(bare, sequential.run_all(), sharded[1]):
            for rank in range(workload.nprocs):
                for level in ("logical", "physical"):
                    expected = _columns(getattr(result.trace_for(rank), level))
                    assert _columns(getattr(seq_run.trace(rank), level)) == expected, (
                        f"{seq_run.label} rank {rank} {level}"
                    )
                    assert _columns(getattr(par_run.trace(rank), level)) == expected, (
                        f"{par_run.label} rank {rank} {level}"
                    )

    def test_table1_summaries_bit_identical(self, bare, sequential):
        # Table 1 is built from the representative rank's stream summaries;
        # compare them directly (the table is a pure function of these).
        for (workload, result), run in zip(bare, sequential.run_all()):
            rank = workload.representative_rank()
            assert run.representative_rank == rank
            for level in ("logical", "physical"):
                assert summarize_stream(run.records(level, rank)) == summarize_stream(
                    getattr(result.trace_for(rank), level)
                ), f"{run.label} {level}"

    def test_table1_and_figure_streams_identical(self, sequential, sharded):
        context = sharded[0]
        assert render_table1(build_table1(sequential)) == render_table1(build_table1(context))
        seq_fig1, par_fig1 = figure1(sequential), figure1(context)
        assert seq_fig1.senders.tolist() == par_fig1.senders.tolist()
        assert seq_fig1.sizes.tolist() == par_fig1.sizes.tolist()
        assert seq_fig1.sender_period == par_fig1.sender_period
        seq_fig2, par_fig2 = figure2(sequential), figure2(context)
        assert seq_fig2.logical_senders.tolist() == par_fig2.logical_senders.tolist()
        assert seq_fig2.physical_senders.tolist() == par_fig2.physical_senders.tolist()

    def test_report_sections_identical(self, sequential, sharded):
        # The sharded prewarm is invisible to the report's content (the
        # timestamped footer sits outside the sections).
        reports = [
            build_report(context=context, include_extensions=False, include_ablations=False)
            for context in (sequential, sharded[0])
        ]
        assert [(s.title, s.body) for s in reports[0].sections] == [
            (s.title, s.body) for s in reports[1].sections
        ]

    def test_dynamic_cell_merges(self, sequential, sharded):
        assert fingerprint(sequential.run_named("random-sender", 4).result) == fingerprint(
            sharded[0].run_named("random-sender", 4).result
        )

    def test_context_spec_for_equals_sweep_cells(self):
        context = ExperimentContext(seed=SEED, scale=SCALE)
        assert [
            context.spec_for(configuration) for configuration in context.configurations()
        ] == paper_sweep(seed=SEED, scale=SCALE).expand()


class TestShardedCaching:
    def test_warmed_cell_is_not_resubmitted(self, sharded):
        _, runs, warm, returned = sharded
        assert len(returned) == 18
        assert runs[WARMED] is warm
        assert all(cell is not warm for cell in returned)

    def test_cache_holds_the_sweep_results_themselves(self, sharded):
        context, runs, _, returned = sharded
        assert all(
            run is cell for run, cell in zip(runs[:WARMED] + runs[WARMED + 1:], returned)
        )
        config = context.configurations()[0]
        assert context.run(config) is context.run(config) is runs[0]

    def test_jobs_one_is_sequential(self, sequential):
        # jobs=1 takes the in-process path (no pool); cached cells make this
        # a pure wiring check.
        assert len(sequential.run_all(jobs=1)) == 19
