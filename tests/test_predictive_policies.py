"""Tests for the prediction-driven flow-control policies (repro.predictive)."""

import pytest

from repro.predictive.buffer_manager import PredictiveBufferPolicy
from repro.predictive.credit_policy import PredictiveCreditPolicy
from repro.predictive.rendezvous_bypass import PredictiveRendezvousPolicy
from repro.runtime.protocol import StandardFlowControl
from repro.sim.engine import Simulator
from repro.sim.machine import MachineConfig
from repro.sim.network import NetworkConfig
from repro.workloads.registry import create_workload


def run_with_policy(workload, policy, seed=5):
    return Simulator(
        workload.nprocs, seed=seed, network=NetworkConfig(seed=seed), policy=policy
    ).run([workload.program_for])


class TestPredictiveBufferPolicy:
    def test_invalid_args(self):
        with pytest.raises(ValueError):
            PredictiveBufferPolicy(horizon=0)
        with pytest.raises(ValueError):
            PredictiveBufferPolicy(extra_recent=-1)

    def test_unbound_policy_rejects_queries(self):
        with pytest.raises(RuntimeError):
            PredictiveBufferPolicy().predictor

    def test_no_preallocation(self):
        policy = PredictiveBufferPolicy()
        policy.bind(MachineConfig(), 8)
        assert policy.preallocate_peers(0) == []

    def test_memory_reduction_on_periodic_workload(self):
        # Rank 0 only ever hears from ranks 1-3, so of the 7 possible peers it
        # needs buffers for at most the predicted few — that is the Section
        # 2.1 memory saving.
        pattern = [(1, 1024), (2, 2048), (3, 1024), (1, 1024)]
        workload = create_workload(
            "periodic-pattern", nprocs=8, pattern=pattern, iterations=40
        )
        policy = PredictiveBufferPolicy(horizon=5)
        run_with_policy(workload, policy)
        summary = policy.memory_summary()
        assert summary["baseline_bytes_per_rank"] == 7 * MachineConfig().eager_buffer_bytes
        assert summary["max_peak_bytes_per_rank"] < summary["baseline_bytes_per_rank"]
        assert summary["reduction_factor"] > 1.0
        assert summary["eager_hits"] > 0

    def test_misses_fall_back_to_rendezvous(self):
        workload = create_workload("periodic-pattern", nprocs=4, iterations=20)
        policy = PredictiveBufferPolicy(horizon=5)
        result = run_with_policy(workload, policy)
        # Early messages (before anything was learned) are forced to rendezvous.
        assert result.stats.forced_rendezvous > 0
        assert policy.eager_misses > 0

    def test_transport_buffers_not_preallocated(self):
        workload = create_workload("ring-exchange", nprocs=4, iterations=10)
        policy = PredictiveBufferPolicy()
        result = run_with_policy(workload, policy)
        for stats in result.buffer_stats:
            assert stats.preallocated_bytes <= 2 * MachineConfig().eager_buffer_bytes

    def test_peak_buffer_accounting_per_rank(self):
        workload = create_workload("periodic-pattern", nprocs=6, iterations=30)
        policy = PredictiveBufferPolicy(horizon=5, extra_recent=1)
        run_with_policy(workload, policy)
        assert policy.buffers_held(0) <= 6
        assert policy.peak_buffer_bytes(0) == policy._peak_buffers[0] * MachineConfig().eager_buffer_bytes


class TestPredictiveCreditPolicy:
    def test_invalid_args(self):
        with pytest.raises(ValueError):
            PredictiveCreditPolicy(horizon=0)
        with pytest.raises(ValueError):
            PredictiveCreditPolicy(credit_cap_bytes=0)
        with pytest.raises(ValueError):
            PredictiveCreditPolicy(bootstrap_credit_bytes=-1)

    def test_bootstrap_allows_tiny_messages(self):
        policy = PredictiveCreditPolicy(bootstrap_credit_bytes=128)
        policy.bind(MachineConfig(), 4)
        assert policy.allows_eager(1, 0, 64, "p2p", 0.0) is True

    def test_without_credit_large_small_message_denied(self):
        policy = PredictiveCreditPolicy(bootstrap_credit_bytes=0)
        policy.bind(MachineConfig(), 4)
        assert policy.allows_eager(1, 0, 1024, "p2p", 0.0) is False
        assert policy.eager_denied == 1

    def test_grants_follow_predictions(self):
        policy = PredictiveCreditPolicy(horizon=3, bootstrap_credit_bytes=0)
        policy.bind(MachineConfig(), 4)
        for _ in range(30):
            policy.on_burst_delivered(0, [(1, 2048, 0, "p2p")], 0.0)
        assert policy.credits.available(0, 1) > 0
        assert policy.allows_eager(1, 0, 2048, "p2p", 0.0) is True

    def test_credit_cap_respected(self):
        policy = PredictiveCreditPolicy(horizon=5, credit_cap_bytes=4096)
        policy.bind(MachineConfig(), 4)
        for _ in range(100):
            policy.on_burst_delivered(0, [(1, 2048, 0, "p2p")], 0.0)
        assert policy.credits.available(0, 1) <= 4096

    def test_end_to_end_bounds_unexpected_exposure(self):
        workload = create_workload("collective-storm", nprocs=8, iterations=10)
        baseline = run_with_policy(workload, StandardFlowControl())
        workload2 = create_workload("collective-storm", nprocs=8, iterations=10)
        policy = PredictiveCreditPolicy()
        predictive = run_with_policy(workload2, policy)
        summary = policy.exposure_summary()
        assert summary["max_outstanding_credit_bytes"] <= policy.credit_cap_bytes
        # The predictive run can only shrink the eager/unexpected traffic.
        assert predictive.stats.eager_messages <= baseline.stats.eager_messages


class TestPredictiveRendezvousPolicy:
    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            PredictiveRendezvousPolicy(horizon=0)

    def test_small_messages_always_eager(self):
        policy = PredictiveRendezvousPolicy()
        policy.bind(MachineConfig(), 4)
        assert policy.allows_eager(1, 0, 512, "p2p", 0.0) is True

    def test_unpredicted_large_message_falls_back(self):
        policy = PredictiveRendezvousPolicy()
        policy.bind(MachineConfig(), 4)
        assert policy.allows_eager(1, 0, 1 << 20, "p2p", 0.0) is False
        assert policy.fallbacks == 1

    def test_predicted_large_message_bypasses(self):
        policy = PredictiveRendezvousPolicy(horizon=3)
        policy.bind(MachineConfig(), 4)
        for _ in range(30):
            policy.on_burst_delivered(0, [(1, 1 << 20, 0, "p2p")], 0.0)
        assert policy.allows_eager(1, 0, 1 << 20, "p2p", 0.0) is True
        assert policy.bypasses == 1

    def test_match_size_flag(self):
        strict = PredictiveRendezvousPolicy(match_size=True)
        loose = PredictiveRendezvousPolicy(match_size=False)
        for policy in (strict, loose):
            policy.bind(MachineConfig(), 4)
            for _ in range(30):
                policy.on_burst_delivered(0, [(1, 1 << 20, 0, "p2p")], 0.0)
        other_size = (1 << 20) + 4096
        assert strict.allows_eager(1, 0, other_size, "p2p", 0.0) is False
        assert loose.allows_eager(1, 0, other_size, "p2p", 0.0) is True

    def test_end_to_end_reduces_rendezvous_traffic(self):
        workload = create_workload("ring-exchange", nprocs=4, iterations=60)
        baseline = run_with_policy(workload, StandardFlowControl())
        workload2 = create_workload("ring-exchange", nprocs=4, iterations=60)
        policy = PredictiveRendezvousPolicy()
        predictive = run_with_policy(workload2, policy)
        assert predictive.stats.rendezvous_messages < baseline.stats.rendezvous_messages
        assert predictive.stats.eager_bypass_large > 0
        summary = policy.bypass_summary()
        assert 0.0 < summary["bypass_rate"] <= 1.0

    def test_bypass_makes_long_messages_faster(self):
        workload = create_workload("ring-exchange", nprocs=4, iterations=60)
        baseline = run_with_policy(workload, StandardFlowControl())
        workload2 = create_workload("ring-exchange", nprocs=4, iterations=60)
        predictive = run_with_policy(workload2, PredictiveRendezvousPolicy())
        assert predictive.makespan < baseline.makespan


class TestBurstHooks:
    """One burst must leave each policy in the same state as the same
    deliveries arriving as runs of one."""

    MESSAGES = [
        (1 + i % 3, 1024 * (1 + i % 2), 0, "p2p") for i in range(36)
    ]

    @staticmethod
    def _feed(policy, burst):
        policy.bind(MachineConfig(), 8)
        if burst:
            policy.on_burst_delivered(0, TestBurstHooks.MESSAGES, 0.0)
        else:
            for message in TestBurstHooks.MESSAGES:
                policy.on_burst_delivered(0, [message], 0.0)
        return policy

    def test_buffer_policy_burst_matches_sequential(self):
        sequential = self._feed(PredictiveBufferPolicy(), burst=False)
        bursty = self._feed(PredictiveBufferPolicy(), burst=True)
        assert bursty._buffered[0] == sequential._buffered[0]
        assert bursty._recent[0] == sequential._recent[0]
        assert bursty.predictor.predict(0) == sequential.predictor.predict(0)
        # Both policies make identical eager decisions afterwards.
        for src in range(1, 8):
            assert bursty.allows_eager(src, 0, 1024, "p2p", 1.0) == \
                sequential.allows_eager(src, 0, 1024, "p2p", 1.0)

    def test_credit_policy_burst_matches_sequential(self):
        # Regression: grants are cumulative and capped, so the burst hook
        # must interleave observe/grant per message — granting once from the
        # post-burst predictions leaves a different credit balance.
        sequential = self._feed(PredictiveCreditPolicy(), burst=False)
        bursty = self._feed(PredictiveCreditPolicy(), burst=True)
        assert bursty.predictor.predict(0) == sequential.predictor.predict(0)
        for src in range(8):
            assert bursty.credits.available(0, src) == \
                sequential.credits.available(0, src)
        assert bursty.credits.total_granted_bytes() == \
            sequential.credits.total_granted_bytes()

    def test_rendezvous_policy_burst_matches_sequential(self):
        sequential = self._feed(PredictiveRendezvousPolicy(), burst=False)
        bursty = self._feed(PredictiveRendezvousPolicy(), burst=True)
        assert bursty.predictor.predict(0) == sequential.predictor.predict(0)
        assert bursty.predictor.observations == sequential.predictor.observations

    def test_base_policy_burst_default_replays_per_message(self):
        calls = []

        class Recorder(StandardFlowControl):
            def on_message_delivered(self, dst, src, nbytes, tag, kind, now):
                calls.append((dst, src, nbytes, tag, kind, now))

        policy = Recorder()
        policy.bind(MachineConfig(), 4)
        policy.on_burst_delivered(2, [(0, 64, 1, "p2p"), (1, 128, 2, "p2p")], 3.0)
        assert calls == [(2, 0, 64, 1, "p2p", 3.0), (2, 1, 128, 2, "p2p", 3.0)]
