"""End-to-end integration tests: simulate, trace, predict, evaluate.

These tie the whole pipeline together at moderate scale and assert the
paper's headline qualitative results:

* the logical streams of the benchmark skeletons are highly predictable;
* physical-level accuracy is lower than (or equal to) logical-level accuracy;
* IS (collective fan-in) is the hardest case at the physical level;
* the prediction-driven runtime policies produce the promised effects.
"""

import pytest

from repro.core.evaluation import evaluate_stream, evaluate_unordered
from repro.core.predictor import PeriodicityPredictor
from repro.scenario import Scenario
from repro.trace.streams import sender_stream, size_stream


def paper_predictor():
    return PeriodicityPredictor(window_size=24, max_period=256)


def accuracy(records, horizon=5):
    stream = sender_stream(records)
    return evaluate_stream(stream, paper_predictor, horizon=horizon).accuracy(1)


class TestLogicalPredictability:
    @pytest.mark.parametrize(
        "fixture_name",
        ["bt9_run", "cg8_run", "lu4_run", "sweep3d6_run"],
    )
    def test_sender_streams_highly_predictable(self, fixture_name, request):
        workload, result = request.getfixturevalue(fixture_name)
        records = result.trace_for(workload.representative_rank()).logical
        assert accuracy(records) > 0.85

    @pytest.mark.parametrize("fixture_name", ["bt9_run", "cg8_run", "lu4_run"])
    def test_size_streams_highly_predictable(self, fixture_name, request):
        workload, result = request.getfixturevalue(fixture_name)
        records = result.trace_for(workload.representative_rank()).logical
        stream = size_stream(records)
        assert evaluate_stream(stream, paper_predictor, horizon=5).accuracy(1) > 0.85

    def test_multi_step_accuracy_stays_high(self, bt9_run):
        workload, result = bt9_run
        stream = sender_stream(result.trace_for(3).logical)
        evaluation = evaluate_stream(stream, paper_predictor, horizon=5)
        assert evaluation.accuracy(5) > 0.85
        # The periodicity predictor does not degrade with the horizon.
        assert abs(evaluation.accuracy(5) - evaluation.accuracy(1)) < 0.05


class TestPhysicalVsLogical:
    @pytest.mark.parametrize("fixture_name", ["bt9_run", "cg8_run", "lu4_run", "is8_run"])
    def test_physical_not_more_predictable_than_logical(self, fixture_name, request):
        workload, result = request.getfixturevalue(fixture_name)
        rank = workload.representative_rank()
        logical = accuracy(result.trace_for(rank).logical)
        physical = accuracy(result.trace_for(rank).physical)
        assert physical <= logical + 0.02

    def test_is_physical_sender_prediction_is_hard(self, is8_run):
        workload, result = is8_run
        logical = accuracy(result.trace_for(0).logical)
        physical = accuracy(result.trace_for(0).physical)
        assert physical < 0.6
        assert logical > physical

    def test_unordered_prediction_recovers_accuracy_at_physical_level(self, bt9_run):
        workload, result = bt9_run
        stream = sender_stream(result.trace_for(3).physical)
        ordered = evaluate_stream(stream, paper_predictor, horizon=5).accuracy(1)
        unordered = evaluate_unordered(stream, paper_predictor, horizon=5).mean_overlap
        assert unordered >= ordered - 1e-9

    def test_random_wildcard_stream_is_unpredictable(self):
        run = Scenario({"workload": "random-sender.6:messages_per_rank=40", "seed": 9}).run()
        stream = run.stream("sender", "physical", rank=0)
        assert evaluate_stream(stream, paper_predictor, horizon=5).accuracy(1) < 0.5


class TestScalingBehaviour:
    def test_longer_runs_improve_accuracy(self):
        short = Scenario({"workload": "bt.4:scale=0.05", "seed": 3}).run()
        long = Scenario({"workload": "bt.4:scale=0.25", "seed": 3}).run()
        accuracy_short = accuracy(short.records("logical", 3))
        accuracy_long = accuracy(long.records("logical", 3))
        assert accuracy_long > accuracy_short

    def test_message_counts_scale_linearly_with_iterations(self):
        small = Scenario({"workload": "bt.4:iterations=5", "seed": 1}).run()
        large = Scenario({"workload": "bt.4:iterations=10", "seed": 1}).run()
        count_small = len([r for r in small.records("logical", 3) if r.kind == "p2p"])
        count_large = len([r for r in large.records("logical", 3) if r.kind == "p2p"])
        assert count_large == 2 * count_small


class TestRuntimeIntegration:
    def test_simulation_results_consistent_across_ranks(self, bt9_run):
        _, result = bt9_run
        assert result.nprocs == 9
        assert len(result.rank_finish_times) == 9
        assert result.makespan == pytest.approx(max(result.rank_finish_times))
        assert result.events_processed > 0

    def test_protocol_mix_reflects_message_sizes(self, bt9_run):
        _, result = bt9_run
        # BT sends 19 KB backward-sweep blocks (rendezvous) and 10 KB faces
        # (eager), so both protocols must be exercised.
        assert result.stats.eager_messages > 0
        assert result.stats.rendezvous_messages > 0

    def test_buffer_stats_report_preallocation(self, bt9_run):
        _, result = bt9_run
        for stats in result.buffer_stats:
            assert stats.preallocated_bytes == 8 * 16 * 1024
