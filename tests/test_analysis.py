"""Tests for the analysis layer (Table 1, Figures 1-4, extensions, ablations).

These use a very small run scale: the point is to verify structure and wiring
(labels, caching, rendering, paper-vs-measured bookkeeping), not the
full-fidelity numbers, which the benchmark harness regenerates.
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
def tiny_context():
    """A context with very small run scale, shared by the analysis tests."""
    return ExperimentContext(seed=11, scale=0.03)


@pytest.fixture(scope="module")
def bt_configs(tiny_context):
    """Only the BT configurations (cheapest subset that spans process counts)."""
    return [c for c in tiny_context.configurations() if c.workload == "bt"][:2]


class TestExperimentContext:
    def test_nineteen_configurations(self, tiny_context):
        assert len(tiny_context.configurations()) == 19

    def test_run_caching(self, tiny_context):
        config = tiny_context.configurations()[0]
        first = tiny_context.run(config)
        second = tiny_context.run(config)
        assert first is second

    def test_run_named_matches_label(self, tiny_context):
        run = tiny_context.run_named("bt", 4)
        assert run.label == "bt.4"
        assert run.representative_rank == 3

    def test_run_named_adhoc_configuration(self, tiny_context):
        run = tiny_context.run_named("ring-exchange", 4)
        assert run.spec.workload.name == "ring-exchange"

    def test_clear(self):
        context = ExperimentContext(seed=1, scale=0.03)
        config = context.configurations()[4]  # a CG cell (cheap)
        context.run(config)
        context.clear()
        assert context._cache == {}


class TestTable1:
    def test_rows_cover_all_configurations(self, tiny_context):
        rows = build_table1(tiny_context)
        assert len(rows) == 19
        assert {row.label for row in rows} == set(PAPER_TABLE1)

    def test_paper_reference_attached(self, tiny_context):
        rows = build_table1(tiny_context)
        by_label = {row.label: row for row in rows}
        assert by_label["bt.9"].paper_p2p == 3651
        assert by_label["is.32"].paper_senders == 32

    def test_structural_shape_matches_paper(self, tiny_context):
        rows = {row.label: row for row in build_table1(tiny_context)}
        # CG is pure point-to-point; IS is collective-dominated.
        assert rows["cg.8"].collective_messages == 0
        assert rows["is.8"].collective_messages > rows["is.8"].p2p_messages
        # LU produces the most p2p messages of all applications at equal scale.
        assert rows["lu.4"].p2p_messages > rows["bt.4"].p2p_messages

    def test_render(self, tiny_context):
        text = render_table1(build_table1(tiny_context))
        assert "bt.9" in text and "paper" in text

    def test_total_messages_property(self, tiny_context):
        row = build_table1(tiny_context)[0]
        assert row.total_messages == row.p2p_messages + row.collective_messages


class TestFigures12:
    def test_figure1_periods(self, tiny_context):
        result = figure1(tiny_context)
        assert result.label == "bt.9"
        assert result.sender_period == 18
        assert result.size_period in (6, 18)
        assert result.distinct_sizes == (3240, 10240, 19440)

    def test_figure1_render(self, tiny_context):
        assert "Figure 1" in figure1(tiny_context).render()

    def test_figure2_same_multiset(self, tiny_context):
        result = figure2(tiny_context)
        assert sorted(result.logical_senders.tolist()) == sorted(
            result.physical_senders.tolist()
        )

    def test_figure2_mismatch_fraction_bounded(self, tiny_context):
        result = figure2(tiny_context)
        assert 0.0 <= result.mismatch_fraction < 0.5

    def test_figure2_render_marks_positions(self, tiny_context):
        assert "reordered positions" in figure2(tiny_context).render()


class TestFigures34:
    def test_figure3_structure(self, tiny_context, bt_configs):
        figure = figure3(tiny_context, configurations=bt_configs)
        assert figure.level == "logical"
        assert figure.labels() == [c.label for c in bt_configs]
        config = figure.config("bt.4")
        assert len(config.sender_accuracy) == 5
        assert all(0.0 <= v <= 100.0 for v in config.sender_accuracy)

    def test_figure4_structure(self, tiny_context, bt_configs):
        figure = figure4(tiny_context, configurations=bt_configs)
        assert figure.level == "physical"
        assert len(figure.configs) == len(bt_configs)

    def test_logical_not_worse_than_physical(self, tiny_context, bt_configs):
        logical = figure3(tiny_context, configurations=bt_configs)
        physical = figure4(tiny_context, configurations=bt_configs)
        assert logical.mean_accuracy("sender", 1) >= physical.mean_accuracy("sender", 1) - 1e-9

    def test_unknown_label_raises(self, tiny_context, bt_configs):
        figure = figure3(tiny_context, configurations=bt_configs)
        with pytest.raises(KeyError):
            figure.config("nope.3")

    def test_render_contains_bars(self, tiny_context, bt_configs):
        text = figure3(tiny_context, configurations=bt_configs).render()
        assert "sender prediction" in text
        assert "#" in text

    def test_custom_predictor_factory(self, tiny_context, bt_configs):
        from repro.core.baselines import LastValuePredictor

        figure = figure3(
            tiny_context, configurations=bt_configs, predictor_factory=LastValuePredictor
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
    def test_window_size_sweep(self, tiny_context):
        rows = window_size_sweep(windows=(8, 32), context=tiny_context)
        assert [row["window_size"] for row in rows] == [8, 32]
        for row in rows:
            assert 0.0 <= row["logical_accuracy"] <= 100.0

    def test_jitter_sensitivity_monotone_reordering(self):
        rows = jitter_sensitivity(jitters=(0.0, 1.0), nprocs=4, scale=0.1, seed=5)
        assert rows[0]["reordered_fraction"] < 0.02
        assert rows[1]["reordered_fraction"] > 2 * rows[0]["reordered_fraction"]

    def test_baseline_comparison_contains_paper_predictor(self, tiny_context):
        rows = baseline_comparison(context=tiny_context, nprocs=9)
        names = {row["predictor"] for row in rows}
        assert "periodicity (paper)" in names
        assert "last-value" in names
        paper_row = next(r for r in rows if r["predictor"] == "periodicity (paper)")
        last_row = next(r for r in rows if r["predictor"] == "last-value")
        assert paper_row["accuracy_plus5"] >= last_row["accuracy_plus5"]

    def test_unordered_accuracy_study(self, tiny_context):
        rows = unordered_accuracy_study(configurations=(("bt", 9),), context=tiny_context)
        assert rows[0]["config"] == "bt.9"
        assert rows[0]["unordered_overlap"] >= rows[0]["ordered_accuracy"] - 1e-9
