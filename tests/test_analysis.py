"""Tests for the analysis layer (Table 1, Figures 1-4, extensions, ablations).

These read the session's ``paper_grid`` (the 19 cells at seed 2003, scale
0.25): the point is to verify structure and wiring (labels, caching,
rendering, paper-vs-measured bookkeeping); ``test_paper_claims.py`` checks
the numbers against the committed artefacts.
"""

import pytest

from repro.analysis.ablations import (
    baseline_comparison,
    jitter_sensitivity,
    unordered_accuracy_study,
    window_size_sweep,
)
from repro.analysis.experiments import ExperimentContext
from repro.analysis.extensions import (
    credit_flow_experiment,
    memory_reduction_experiment,
    rendezvous_bypass_experiment,
)
from repro.analysis.figures_accuracy import figure3, figure4
from repro.analysis.figures_streams import figure1, figure2
from repro.analysis.table1 import PAPER_TABLE1, build_table1, render_table1


@pytest.fixture(scope="module")
def bt_configs(paper_grid):
    """Only the BT configurations (cheapest subset that spans process counts)."""
    return [c for c in paper_grid.configurations() if c.workload == "bt"][:2]


class TestExperimentContext:
    def test_nineteen_configurations(self, paper_grid):
        assert len(paper_grid.configurations()) == 19

    def test_run_caching(self, paper_grid):
        config = paper_grid.configurations()[0]
        first = paper_grid.run(config)
        second = paper_grid.run(config)
        assert first is second

    def test_run_named_matches_label(self, paper_grid):
        run = paper_grid.run_named("bt", 4)
        assert run.label == "bt.4"
        assert run.representative_rank == 3

    def test_run_named_adhoc_configuration(self):
        run = ExperimentContext(seed=11, scale=0.03).run_named("ring-exchange", 4)
        assert run.spec.workload.name == "ring-exchange"

    def test_clear(self):
        context = ExperimentContext(seed=1, scale=0.03)
        config = context.configurations()[4]  # a CG cell (cheap)
        context.run(config)
        context.clear()
        assert context._cache == {}


class TestTable1:
    def test_rows_cover_all_configurations(self, paper_grid):
        rows = build_table1(paper_grid)
        assert len(rows) == 19
        assert {row.label for row in rows} == set(PAPER_TABLE1)

    def test_paper_reference_attached(self, paper_grid):
        rows = build_table1(paper_grid)
        by_label = {row.label: row for row in rows}
        assert by_label["bt.9"].paper_p2p == 3651
        assert by_label["is.32"].paper_senders == 32

    def test_structural_shape_matches_paper(self, paper_grid):
        rows = {row.label: row for row in build_table1(paper_grid)}
        # CG is pure point-to-point; IS is collective-dominated.
        assert rows["cg.8"].collective_messages == 0
        assert rows["is.8"].collective_messages > rows["is.8"].p2p_messages
        # LU produces the most p2p messages of all applications at equal scale.
        assert rows["lu.4"].p2p_messages > rows["bt.4"].p2p_messages

    def test_render(self, paper_grid):
        text = render_table1(build_table1(paper_grid))
        assert "bt.9" in text and "paper" in text

    def test_total_messages_property(self, paper_grid):
        row = build_table1(paper_grid)[0]
        assert row.total_messages == row.p2p_messages + row.collective_messages


class TestFigures12:
    def test_figure1_periods(self, paper_grid):
        result = figure1(paper_grid)
        assert result.label == "bt.9"
        assert result.sender_period == 18
        assert result.size_period in (6, 18)
        assert result.distinct_sizes == (3240, 10240, 19440)

    def test_figure1_render(self, paper_grid):
        assert "Figure 1" in figure1(paper_grid).render()

    def test_figure2_same_multiset(self, paper_grid):
        result = figure2(paper_grid)
        assert sorted(result.logical_senders.tolist()) == sorted(
            result.physical_senders.tolist()
        )

    def test_figure2_mismatch_fraction_bounded(self, paper_grid):
        result = figure2(paper_grid)
        assert 0.0 <= result.mismatch_fraction < 0.5

    def test_figure2_render_marks_positions(self, paper_grid):
        assert "reordered positions" in figure2(paper_grid).render()


class TestFigures34:
    def test_figure3_structure(self, paper_grid, bt_configs):
        figure = figure3(paper_grid, configurations=bt_configs)
        assert figure.level == "logical"
        assert figure.labels() == [c.label for c in bt_configs]
        config = figure.config("bt.4")
        assert len(config.sender_accuracy) == 5
        assert all(0.0 <= v <= 100.0 for v in config.sender_accuracy)

    def test_figure4_structure(self, paper_grid, bt_configs):
        figure = figure4(paper_grid, configurations=bt_configs)
        assert figure.level == "physical"
        assert len(figure.configs) == len(bt_configs)

    def test_logical_not_worse_than_physical(self, paper_grid, bt_configs):
        logical = figure3(paper_grid, configurations=bt_configs)
        physical = figure4(paper_grid, configurations=bt_configs)
        assert logical.mean_accuracy("sender", 1) >= physical.mean_accuracy("sender", 1) - 1e-9

    def test_unknown_label_raises(self, paper_grid, bt_configs):
        figure = figure3(paper_grid, configurations=bt_configs)
        with pytest.raises(KeyError):
            figure.config("nope.3")

    def test_render_contains_bars(self, paper_grid, bt_configs):
        text = figure3(paper_grid, configurations=bt_configs).render()
        assert "sender prediction" in text
        assert "#" in text

    def test_custom_predictor_factory(self, paper_grid, bt_configs):
        from repro.core.baselines import LastValuePredictor

        figure = figure3(
            paper_grid, configurations=bt_configs, predictor_factory=LastValuePredictor
        )
        assert figure.configs  # runs without error


class TestExtensions:
    def test_memory_reduction_experiment(self):
        outcome = memory_reduction_experiment(
            workload_name="bt", nprocs=9, scale=0.05, seed=5
        )
        assert outcome["baseline_buffer_bytes_per_rank"] == 8 * 16 * 1024
        assert outcome["predictive_peak_buffer_bytes_per_rank"] < outcome[
            "baseline_buffer_bytes_per_rank"
        ]
        assert outcome["memory_reduction_factor"] > 1.0

    def test_credit_flow_experiment(self):
        outcome = credit_flow_experiment(nprocs=8, scale=0.5, seed=5)
        assert outcome["max_outstanding_credit_bytes"] <= outcome["credit_cap_bytes"]
        assert outcome["predictive_makespan"] > 0

    def test_rendezvous_bypass_experiment(self):
        outcome = rendezvous_bypass_experiment(
            workload_name="ring-exchange", nprocs=4, scale=0.6, seed=5
        )
        assert outcome["bypassed_long_messages"] > 0
        assert outcome["predictive_rendezvous_messages"] < outcome[
            "baseline_rendezvous_messages"
        ]
        assert outcome["speedup_vs_baseline"] > 1.0


class TestAblations:
    def test_window_size_sweep(self, paper_grid):
        rows = window_size_sweep(windows=(8, 32), context=paper_grid)
        assert [row["window_size"] for row in rows] == [8, 32]
        for row in rows:
            assert 0.0 <= row["logical_accuracy"] <= 100.0

    def test_jitter_sensitivity_monotone_reordering(self):
        rows = jitter_sensitivity(jitters=(0.0, 1.0), nprocs=4, scale=0.1, seed=5)
        assert rows[0]["reordered_fraction"] < 0.02
        assert rows[1]["reordered_fraction"] > 2 * rows[0]["reordered_fraction"]

    def test_baseline_comparison_contains_paper_predictor(self, paper_grid):
        rows = baseline_comparison(context=paper_grid, nprocs=9)
        names = {row["predictor"] for row in rows}
        assert "periodicity (paper)" in names
        assert "last-value" in names
        paper_row = next(r for r in rows if r["predictor"] == "periodicity (paper)")
        last_row = next(r for r in rows if r["predictor"] == "last-value")
        assert paper_row["accuracy_plus5"] >= last_row["accuracy_plus5"]

    def test_unordered_accuracy_study(self, paper_grid):
        rows = unordered_accuracy_study(configurations=(("bt", 9),), context=paper_grid)
        assert rows[0]["config"] == "bt.9"
        assert rows[0]["unordered_overlap"] >= rows[0]["ordered_accuracy"] - 1e-9
