"""Tests for repro.sim.network."""

import pytest

from repro.sim.network import NetworkConfig, NetworkModel


class TestNetworkConfig:
    def test_defaults_valid(self):
        config = NetworkConfig()
        assert config.latency > 0
        assert config.bandwidth > 0

    def test_invalid_latency(self):
        with pytest.raises(ValueError):
            NetworkConfig(latency=-1.0e-6)

    def test_zero_latency_ideal_network(self):
        # latency=0 models the ideal network used by the scaling benchmarks
        # (lockstep clocks -> wide timestamp cohorts); it must validate and
        # produce exact arrival times.
        config = NetworkConfig(
            latency=0.0, bandwidth=float("inf"), jitter_sigma=0.0, contention=False
        )
        model = NetworkModel(config)
        assert model.deterministic
        assert model.arrival_time(0, 1, 1024, 5.0) == 5.0

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            NetworkConfig(bandwidth=-1.0)

    def test_invalid_jitter(self):
        with pytest.raises(ValueError):
            NetworkConfig(jitter_sigma=-0.1)

    def test_drop_knob_is_gone(self):
        # Drops are the fault plane's (FaultConfig.drop_rate); the network
        # model times messages and nothing else.
        with pytest.raises(TypeError, match="drop_probability"):
            NetworkConfig(drop_probability=0.1)

    def test_noiseless_factory(self):
        config = NetworkConfig.noiseless()
        assert config.jitter_sigma == 0.0
        assert config.contention is False

    def test_noiseless_accepts_overrides(self):
        config = NetworkConfig.noiseless(latency=1e-3)
        assert config.latency == 1e-3

    def test_with_overrides(self):
        config = NetworkConfig().with_overrides(latency=1e-3)
        assert config.latency == 1e-3


class TestNetworkModel:
    def test_serialization_time(self):
        model = NetworkModel(NetworkConfig.noiseless(bandwidth=100.0))
        assert model.serialization_time(200) == pytest.approx(2.0)

    def test_base_transfer_time(self):
        config = NetworkConfig.noiseless(latency=1.0, bandwidth=100.0)
        model = NetworkModel(config)
        assert model.base_transfer_time(100) == pytest.approx(2.0)

    def test_noiseless_arrival_is_deterministic(self):
        config = NetworkConfig.noiseless(latency=1.0, bandwidth=1000.0)
        model = NetworkModel(config)
        assert model.arrival_time(0, 1, 1000, 0.0) == pytest.approx(2.0)

    def test_jitter_never_reduces_latency(self):
        model = NetworkModel(NetworkConfig(jitter_sigma=0.5, contention=False, seed=1))
        base = model.base_transfer_time(100)
        for _ in range(100):
            assert model.arrival_time(0, 1, 100, 0.0) >= base

    def test_same_seed_same_arrivals(self):
        a = NetworkModel(NetworkConfig(seed=7))
        b = NetworkModel(NetworkConfig(seed=7))
        arrivals_a = [a.arrival_time(0, 1, 64, float(i)) for i in range(20)]
        arrivals_b = [b.arrival_time(0, 1, 64, float(i)) for i in range(20)]
        assert arrivals_a == arrivals_b

    def test_different_seed_different_arrivals(self):
        a = NetworkModel(NetworkConfig(seed=7))
        b = NetworkModel(NetworkConfig(seed=8))
        arrivals_a = [a.arrival_time(0, 1, 64, float(i)) for i in range(20)]
        arrivals_b = [b.arrival_time(0, 1, 64, float(i)) for i in range(20)]
        assert arrivals_a != arrivals_b

    def test_contention_serialises_same_destination(self):
        config = NetworkConfig.noiseless(latency=1e-6, bandwidth=1e6, contention=True)
        model = NetworkModel(config)
        # Two large messages injected simultaneously to the same destination:
        # the second cannot finish before the first has drained.
        first = model.arrival_time(0, 2, 10_000, 0.0)
        second = model.arrival_time(1, 2, 10_000, 0.0)
        assert second >= first + model.serialization_time(10_000) * 0.99

    def test_contention_does_not_affect_other_destination(self):
        config = NetworkConfig.noiseless(latency=1e-6, bandwidth=1e6, contention=True)
        model = NetworkModel(config)
        model.arrival_time(0, 2, 10_000, 0.0)
        other = model.arrival_time(1, 3, 10_000, 0.0)
        assert other == pytest.approx(model.base_transfer_time(10_000))

    def test_jittered_contended_arrivals_hold_still(self):
        # The per-message path is pinned to the float: 1,000 arrivals under
        # the default jittered, contended network, captured at PR 22.
        model = NetworkModel(NetworkConfig(seed=7))
        arrivals = [
            model.arrival_time(i % 5, i % 3, (i * 977) % 70000, i * 1.0e-6)
            for i in range(1000)
        ]
        assert arrivals[0].hex() == "0x1.328ae109e584ap-15"
        assert arrivals[-1].hex() == "0x1.3cab88ccb3f59p-5"
        assert sum(arrivals).hex() == "0x1.3053285b1d2d0p+4"

    def test_counters(self):
        model = NetworkModel(NetworkConfig(seed=1))
        model.arrival_time(0, 1, 100, 0.0)
        model.arrival_time(0, 1, 200, 0.0)
        assert model.messages_timed == 2
        assert model.total_bytes == 300

    def test_negative_bytes_rejected(self):
        model = NetworkModel(NetworkConfig(seed=1))
        with pytest.raises(ValueError):
            model.arrival_time(0, 1, -5, 0.0)

    def test_negative_inject_time_rejected(self):
        model = NetworkModel(NetworkConfig(seed=1))
        with pytest.raises(ValueError):
            model.arrival_time(0, 1, 5, -1.0)

    def test_seed_override_argument(self):
        model = NetworkModel(NetworkConfig(seed=1), seed=99)
        assert model.config.seed == 99
