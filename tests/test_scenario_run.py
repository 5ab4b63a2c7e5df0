"""Tests for the Scenario run facade, ScenarioResult, and seed plumbing."""

import pytest

from repro.core.evaluation import AccuracyResult
from repro.scenario import Scenario, ScenarioSpec
from repro.sim.engine import Simulator
from repro.sim.network import NetworkConfig
from repro.trace.io import load_traces
from repro.workloads.registry import create_workload


def _columns_tuple(columns):
    """A trace level's full content as comparable lists."""
    return (
        columns.sender_array().tolist(),
        columns.size_array().tolist(),
        columns.tag_array().tolist(),
        columns.time_array().tolist(),
        columns.seq_array().tolist(),
    )


class TestScenarioRun:
    def test_bit_identical_to_bare_simulator(self):
        scenario_result = Scenario(
            ScenarioSpec(workload="bt.9:scale=0.05", seed=7)
        ).run()
        workload = create_workload("bt", nprocs=9, scale=0.05)
        bare = Simulator(nprocs=9, seed=7).run([workload.program_for])
        assert scenario_result.makespan == bare.makespan
        assert scenario_result.stats.summary() == bare.stats.summary()
        for rank in range(9):
            ours = scenario_result.trace(rank)
            theirs = bare.trace_for(rank)
            assert _columns_tuple(ours.logical) == _columns_tuple(theirs.logical)
            assert _columns_tuple(ours.physical) == _columns_tuple(theirs.physical)

    def test_policy_and_network_from_spec(self):
        result = Scenario(
            ScenarioSpec(
                workload="bt.4:scale=0.05",
                seed=3,
                policy="rendezvous",
                network="noiseless",
            )
        ).run()
        assert result.stats.eager_messages == 0
        # Noiseless network: physical order equals logical order.
        logical = result.stream("sender", level="logical")
        physical = result.stream("sender", level="physical")
        assert list(logical) == list(physical)

    def test_tracing_disabled(self):
        spec = ScenarioSpec(workload="ring-exchange.4:scale=0.05", trace=False)
        result = Scenario(spec).run()
        assert result.result.tracer is None
        with pytest.raises(ValueError, match="without tracing"):
            result.save_traces("nowhere.jsonl")

    def test_compiled_false_matches_compiled_true(self):
        base = ScenarioSpec(workload="bt.4:scale=0.05", seed=11)
        fast = Scenario(base).run()
        slow = Scenario(base.with_overrides(compiled=False)).run()
        assert fast.makespan == slow.makespan
        assert _columns_tuple(fast.trace().logical) == _columns_tuple(slow.trace().logical)

    def test_max_events_guard_forwarded(self):
        from repro.sim.errors import SimulationError

        spec = ScenarioSpec(workload="bt.4:scale=0.05", max_events=10)
        with pytest.raises(SimulationError):
            Scenario(spec).run()


class TestScenarioResultAccessors:
    @pytest.fixture(scope="class")
    def result(self):
        return Scenario(ScenarioSpec(workload="bt.9:scale=0.05", seed=7)).run()

    def test_representative_rank_default(self, result):
        rank = result.workload.representative_rank()
        assert result.representative_rank == rank
        assert result.trace() is result.trace(rank)  # defaults to representative

    def test_streams_and_summary(self, result):
        senders = result.stream("sender")
        sizes = result.stream("size")
        assert len(senders) == len(sizes) == result.summary().total_messages
        assert result.summary(level="physical").total_messages == len(
            result.stream("sender", level="physical")
        )

    def test_stream_caching(self, result):
        assert result.stream("sender") is result.stream("sender")
        assert result.predict("sender") is result.predict("sender")

    def test_predict_uses_spec_predictor(self, result):
        outcome = result.predict("sender")
        assert isinstance(outcome, AccuracyResult)
        assert len(outcome.accuracies()) == result.spec.predictor.horizon
        shorter = result.predict("sender", horizon=2)
        assert len(shorter.accuracies()) == 2

    def test_unknown_kind_and_level_rejected(self, result):
        with pytest.raises(ValueError, match="stream kind"):
            result.stream("tag")
        with pytest.raises(ValueError, match="trace level"):
            result.records(level="quantum")

    def test_save_traces_records_spec_metadata(self, result, tmp_path):
        path = tmp_path / "bt9.jsonl"
        count = result.save_traces(path, metadata={"extra": 1})
        assert count > 0
        _traces, metadata = load_traces(path)
        assert metadata["workload"] == "bt"
        assert metadata["nprocs"] == 9
        assert metadata["seed"] == 7
        assert metadata["policy"] == "standard"
        assert metadata["extra"] == 1

    def test_trace_path_in_spec_saves_on_run(self, tmp_path):
        path = tmp_path / "auto.jsonl"
        Scenario(
            ScenarioSpec(workload="ring-exchange.4:scale=0.05", trace=str(path))
        ).run()
        traces, metadata = load_traces(path)
        assert len(traces) == 4
        assert metadata["workload"] == "ring-exchange"


def _simulate(network=None, seed=5):
    """bt.4 through the objects door: a bare Simulator."""
    workload = create_workload("bt", nprocs=4, scale=0.05)
    return Simulator(nprocs=4, network=network, seed=seed).run([workload.program_for])


def _scenario(network=None, seed=5):
    """The same cell through the names door: Scenario(spec)."""
    spec = ScenarioSpec(workload="bt.4:scale=0.05", seed=seed, network=network)
    return Scenario(spec).run().result


def _arrival_times(result):
    return result.trace_for(3).physical.time_array().tolist()


class TestSeedPlumbing:
    """Regression: a NetworkConfig without a pinned seed derives from the run
    seed identically on both doors (a bare Simulator and Scenario(spec))."""

    @pytest.mark.parametrize("run", [_simulate, _scenario])
    def test_unpinned_network_follows_run_seed(self, run):
        implicit = run()
        explicit_unpinned = run(NetworkConfig(jitter_sigma=0.2))
        explicit_pinned = run(NetworkConfig(jitter_sigma=0.2, seed=5))
        # jitter_sigma=0.2 is the default, so all three recipes coincide.
        assert (
            _arrival_times(implicit)
            == _arrival_times(explicit_unpinned)
            == _arrival_times(explicit_pinned)
        )
        assert _arrival_times(implicit) != _arrival_times(run(seed=6))

    @pytest.mark.parametrize("run", [_simulate, _scenario])
    def test_pinned_seed_is_respected(self, run):
        derived = run(NetworkConfig())
        pinned = run(NetworkConfig(seed=0))
        assert _arrival_times(derived) != _arrival_times(pinned)

    def test_both_doors_derive_identically(self):
        for network in (None, NetworkConfig(jitter_sigma=0.3), NetworkConfig(seed=0)):
            assert _arrival_times(_scenario(network)) == _arrival_times(_simulate(network))
