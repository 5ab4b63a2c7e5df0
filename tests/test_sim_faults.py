"""Unit tests for the fault-injection subsystem (config, injector, presets)."""

import pytest

from repro.scenario import FaultSpec, Scenario, ScenarioSpec
from repro.sim import SimulationError, TimeLimitExceeded
from repro.sim.faults import FaultConfig, FaultInjector, merge_fault_partials
from repro.sim.registry import create_faults, fault_preset_names


class TestFaultConfig:
    def test_default_is_null(self):
        config = FaultConfig()
        assert config.is_null
        assert not config.drop_active
        assert not config.degrade_active
        assert not config.stall_active

    def test_null_even_with_pinned_seed(self):
        # A pinned seed alone does not make faults live.
        assert FaultConfig(seed=7).is_null

    def test_active_flags(self):
        assert FaultConfig(drop_rate=0.1).drop_active
        assert FaultConfig(degrade_factor=2.0).degrade_active
        assert FaultConfig(stall_rate=0.01).stall_active
        # A degrade factor without window duration cannot fire.
        assert not FaultConfig(degrade_factor=2.0, degrade_duration=0.0).degrade_active
        # A stall rate without stall time cannot fire.
        assert not FaultConfig(stall_rate=0.5, stall_seconds=0.0).stall_active

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop_rate": -0.1},
            {"drop_rate": 1.5},
            {"duplicate_rate": 2.0},
            {"retransmit_timeout": -1.0},
            {"degrade_factor": 0.0},
            {"degrade_interval": 0.0},
            {"stall_rate": -0.01},
            {"max_retransmits": 0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultConfig(**kwargs)

    def test_with_overrides(self):
        config = FaultConfig(drop_rate=0.1).with_overrides(drop_rate=0.2, seed=3)
        assert config.drop_rate == 0.2
        assert config.seed == 3


class TestFaultInjector:
    def test_data_fault_deterministic(self):
        runs = []
        for _ in range(2):
            injector = FaultInjector(FaultConfig(drop_rate=0.3), run_seed=11)
            runs.append([injector.data_fault(0) for _ in range(200)])
        assert runs[0] == runs[1]
        injector_other = FaultInjector(FaultConfig(drop_rate=0.3), run_seed=12)
        assert [injector_other.data_fault(0) for _ in range(200)] != runs[0]

    def test_data_fault_streams_independent_per_sender(self):
        # Per-sender drop streams: each sending rank draws from its own RNG,
        # so a replayed injector reproduces one rank's decisions regardless
        # of how other ranks' draws interleave (the partitioned engine
        # depends on exactly this).
        config = FaultConfig(drop_rate=0.5)
        injector = FaultInjector(config, run_seed=11)
        per_rank = {
            rank: [injector.data_fault(rank) for _ in range(100)] for rank in range(3)
        }
        assert per_rank[0] != per_rank[1]
        replay = FaultInjector(config, run_seed=11)
        assert [replay.data_fault(2) for _ in range(100)] == per_rank[2]

    def test_drop_counters_and_delay_quantum(self):
        config = FaultConfig(drop_rate=0.5, retransmit_timeout=1e-3)
        injector = FaultInjector(config, run_seed=1)
        decisions = [injector.data_fault(0) for _ in range(500)]
        dropped = [delay for delay, _ in decisions if delay > 0.0]
        assert injector.messages_dropped == len(dropped) > 0
        assert injector.retransmissions >= injector.messages_dropped
        # Every delay is a whole number of retransmit timeouts, bounded by
        # the retry cap.
        for delay in dropped:
            attempts = round(delay / config.retransmit_timeout)
            assert 1 <= attempts <= config.max_retransmits
            assert delay == attempts * config.retransmit_timeout

    def test_duplicates_only_on_drops(self):
        config = FaultConfig(drop_rate=0.5, duplicate_rate=1.0)
        injector = FaultInjector(config, run_seed=2)
        for _ in range(100):
            delay, duplicate = injector.data_fault(0)
            assert duplicate == (delay > 0.0)
        assert injector.duplicates_delivered == injector.messages_dropped

    def test_pinned_config_seed_beats_run_seed(self):
        pinned_a = FaultInjector(FaultConfig(drop_rate=0.3, seed=5), run_seed=1)
        pinned_b = FaultInjector(FaultConfig(drop_rate=0.3, seed=5), run_seed=2)
        assert [pinned_a.data_fault(0) for _ in range(100)] == [
            pinned_b.data_fault(0) for _ in range(100)
        ]

    def test_degrade_timeline_alternates_and_is_stable(self):
        config = FaultConfig(
            degrade_factor=4.0, degrade_interval=1e-3, degrade_duration=1e-3
        )
        injector = FaultInjector(config, run_seed=3)
        times = [i * 2.5e-4 for i in range(200)]
        multipliers = [injector.latency_multiplier(t) for t in times]
        assert set(multipliers) == {1.0, 4.0}
        # Queries are pure in time: asking again (including out of order)
        # returns the same window classification.
        assert [injector.latency_multiplier(t) for t in reversed(times)] == list(
            reversed(multipliers)
        )
        assert injector.latency_multiplier(0.0) == 1.0  # timeline starts healthy

    def test_stall_streams_independent_per_rank(self):
        config = FaultConfig(stall_rate=0.5, stall_seconds=1e-3)
        injector = FaultInjector(config, run_seed=4)
        per_rank = {rank: [injector.stall(rank) for _ in range(100)] for rank in range(3)}
        assert per_rank[0] != per_rank[1]
        # Re-derived injector reproduces each rank's schedule exactly,
        # regardless of rank interleaving order.
        replay = FaultInjector(config, run_seed=4)
        replayed = [replay.stall(2) for _ in range(100)]
        assert replayed == per_rank[2]
        assert injector.stalls == sum(
            1 for delays in per_rank.values() for d in delays if d > 0.0
        )
        assert injector.stall_time == pytest.approx(
            sum(d for delays in per_rank.values() for d in delays)
        )


class TestFaultPartials:
    def test_merged_partials_match_single_injector(self):
        # Two partition-local injectors, each fed a disjoint half of the
        # ranks, must merge to exactly what one whole-job injector counts —
        # this is the invariant the parallel engine's result merge rests on.
        config = FaultConfig(
            drop_rate=0.5, duplicate_rate=0.5, stall_rate=0.5, stall_seconds=1e-3
        )
        whole = FaultInjector(config, run_seed=9)
        parts = [FaultInjector(config, run_seed=9) for _ in range(2)]
        for rank in range(4):
            part = parts[rank // 2]
            for _ in range(50):
                assert part.data_fault(rank) == whole.data_fault(rank)
                assert part.stall(rank) == whole.stall(rank)
        merged = merge_fault_partials([p.partial_counters() for p in parts])
        assert merged == whole.counters()

    def test_merge_of_empty_partials(self):
        assert merge_fault_partials([]) == FaultInjector(
            FaultConfig(drop_rate=0.1), run_seed=1
        ).counters()


class TestFaultPresets:
    def test_registry_names(self):
        assert {"none", "drop", "degrade", "stall", "chaos"} <= set(
            fault_preset_names()
        )

    def test_none_preset_is_null(self):
        assert create_faults("none", seed=7).is_null

    def test_alias_parameters(self):
        assert create_faults("drop", rate=0.05).drop_rate == 0.05
        assert create_faults("degrade", factor=8.0).degrade_factor == 8.0
        assert create_faults("stall", rate=0.01).stall_rate == 0.01

    def test_explicit_field_override_beats_alias(self):
        # Sweep grids set real field names; they must not collide with the
        # preset's alias parameter.
        assert create_faults("drop", drop_rate=0.5).drop_rate == 0.5
        assert create_faults("chaos", drop_rate=0.5).drop_rate == 0.5

    def test_chaos_preset_combines_models(self):
        config = create_faults("chaos")
        assert config.drop_active and config.degrade_active and config.stall_active


class TestFaultSpec:
    def test_shorthand_with_seed(self):
        spec = FaultSpec.coerce("drop:rate=0.01,seed=7")
        assert spec.preset == "drop"
        assert spec.seed == 7  # seed normalised out of overrides
        assert dict(spec.overrides) == {"rate": 0.01}
        config = spec.build(run_seed=99)
        assert config.seed == 7 and config.drop_rate == 0.01

    def test_unpinned_seed_derives_from_run_seed(self):
        assert FaultSpec.coerce("chaos").build(run_seed=42).seed == 42

    def test_double_seed_pin_rejected(self):
        with pytest.raises(ValueError, match="seed twice"):
            FaultSpec(preset="drop", seed=1, overrides={"seed": 2})

    def test_config_roundtrip(self):
        config = FaultConfig(drop_rate=0.1, degrade_factor=2.0)
        spec = FaultSpec.coerce(config)
        assert spec.build(run_seed=5) == config.with_overrides(seed=5)

    def test_dict_form_and_to_dict_roundtrip(self):
        spec = FaultSpec.coerce({"preset": "drop", "rate": 0.02, "seed": 3})
        assert FaultSpec.coerce(spec.to_dict()) == spec

    def test_scenario_spec_default_faults(self):
        spec = ScenarioSpec(workload="bt.4")
        assert spec.faults == FaultSpec()
        assert spec.faults.build(spec.seed).is_null


class TestEngineGuards:
    @pytest.mark.parametrize("engine", ["scalar", "vectorised"])
    def test_max_wall_seconds_raises_time_limit(self, engine):
        spec = ScenarioSpec(
            workload="lu.8", seed=1, max_wall_seconds=1e-9, engine=engine
        )
        with pytest.raises(TimeLimitExceeded):
            Scenario(spec).run()

    def test_wall_clock_is_read_every_1024_events(self, monkeypatch):
        # A batch record advances the processed-event count by its length,
        # so the guard must fire on *passing* a multiple of 1024, not only on
        # landing on one — Sweep's per-cell timeout rides on it.
        import repro.sim.engine as engine_module
        from repro.analysis.scaling import lockstep_scale_configs
        from repro.sim import Simulator
        from repro.workloads.registry import create_workload

        reads = []

        def clock():
            reads.append(None)
            return 0.0

        monkeypatch.setattr(engine_module, "_monotonic", clock)
        machine, network = lockstep_scale_configs()
        workload = create_workload("bt", 64, iterations=1, compute_noise=0.0)
        simulator = Simulator(
            nprocs=64,
            seed=5,
            machine=machine,
            network=network,
            tracer=False,
            engine="vectorised",
            max_wall_seconds=3600.0,
        )
        result = simulator.run([workload.program_for])
        assert simulator.vector_cohorts > 0
        checks = len(reads) - 1  # the first read sets the deadline
        due = result.events_processed // 1024
        assert due >= 4
        # One cohort of slack: the last multiple may fall inside the final one.
        assert due - 1 <= checks <= due

    def test_time_limit_is_a_simulation_error(self):
        assert issubclass(TimeLimitExceeded, SimulationError)

    def test_max_wall_seconds_must_be_positive(self):
        with pytest.raises(ValueError, match="max_wall_seconds"):
            ScenarioSpec(workload="bt.4", max_wall_seconds=0.0)

    def test_generous_budget_does_not_trip(self):
        spec = ScenarioSpec(workload="bt.4:scale=0.02", max_wall_seconds=300.0)
        result = Scenario(spec).run()
        assert result.makespan > 0.0
