"""Tests for the declarative spec tree (repro.scenario.spec + shorthand)."""

import pickle

import pytest

from repro.predictive.credit_policy import PredictiveCreditPolicy
from repro.runtime.protocol import AlwaysRendezvousFlowControl, StandardFlowControl
from repro.scenario.shorthand import coerce_scalar, parse_params, split_shorthand
from repro.scenario.spec import (
    MachineSpec,
    NetworkSpec,
    PolicySpec,
    PredictorSpec,
    ScenarioSpec,
    TraceSpec,
    WorkloadSpec,
)
from repro.sim.machine import MachineConfig
from repro.sim.network import NetworkConfig
from repro.workloads.bt import BTWorkload


class TestShorthand:
    def test_scalar_coercion(self):
        assert coerce_scalar("24") == 24
        assert coerce_scalar("0.2") == 0.2
        assert coerce_scalar("1e-6") == 1e-6
        assert coerce_scalar("true") is True
        assert coerce_scalar("Off") is False
        assert coerce_scalar("none") is None
        assert coerce_scalar("periodicity") == "periodicity"

    def test_parse_params(self):
        assert parse_params("a=1, b=x,c=0.5") == {"a": 1, "b": "x", "c": 0.5}
        assert parse_params("") == {}

    def test_parse_params_rejects_malformed(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_params("novalue")
        with pytest.raises(ValueError, match="duplicate"):
            parse_params("a=1,a=2")

    def test_split_shorthand(self):
        assert split_shorthand("credit:horizon=5") == ("credit", {"horizon": 5})
        assert split_shorthand("standard") == ("standard", {})
        with pytest.raises(ValueError):
            split_shorthand(":horizon=5")


class TestWorkloadSpec:
    def test_label_form(self):
        spec = WorkloadSpec.from_shorthand("bt.9:scale=0.2")
        assert spec == WorkloadSpec(name="bt", nprocs=9, scale=0.2)
        assert spec.label == "bt.9"

    def test_sweep3d_label_alias(self):
        spec = WorkloadSpec.from_shorthand("sw.32")
        assert spec.name == "sweep3d" and spec.nprocs == 32
        assert spec.label == "sw.32"

    def test_explicit_form(self):
        spec = WorkloadSpec.from_shorthand("bt:nprocs=9,scale=0.2")
        assert spec == WorkloadSpec(name="bt", nprocs=9, scale=0.2)

    def test_nprocs_twice_rejected(self):
        with pytest.raises(ValueError, match="nprocs twice"):
            WorkloadSpec.from_shorthand("bt.9:nprocs=4")

    def test_missing_nprocs_rejected_at_build(self):
        # A bare name parses to the nprocs=0 sentinel (trace replay resolves
        # it from the file); workloads needing a real count reject it at
        # build time instead of parse time.
        spec = WorkloadSpec.from_shorthand("bt")
        assert spec.nprocs == 0
        with pytest.raises(ValueError, match="nprocs"):
            spec.build()

    def test_build_uses_registry_and_defaults(self):
        workload = WorkloadSpec(name="bt", nprocs=9, scale=0.1).build()
        assert isinstance(workload, BTWorkload)
        assert workload.nprocs == 9 and workload.scale == 0.1
        # Unset fields fall back to the workload class defaults.
        default = BTWorkload(nprocs=9, scale=0.1)
        assert workload.compute_time == default.compute_time
        assert workload.iterations == default.iterations

    def test_extra_keys_become_params(self):
        spec = WorkloadSpec.from_dict(
            {"name": "periodic", "nprocs": 4, "pattern_length": 6}
        )
        assert dict(spec.params) == {"pattern_length": 6}

    def test_workload_instance_is_rejected(self):
        # Specs are built from names; a caller holding a Workload object
        # builds a Simulator instead.
        instance = BTWorkload(nprocs=9, scale=0.1)
        with pytest.raises(TypeError, match="cannot build a WorkloadSpec"):
            WorkloadSpec.coerce(instance)
        with pytest.raises(TypeError, match="cannot build a ScenarioSpec"):
            ScenarioSpec.coerce(instance)

    def test_dict_round_trip(self):
        spec = WorkloadSpec(name="bt", nprocs=9, scale=0.2, params={"k": 1})
        assert WorkloadSpec.from_dict(spec.to_dict()) == spec


class TestMachineSpec:
    def test_default_builds_default_config(self):
        assert MachineSpec().build() == MachineConfig()

    def test_shorthand_overrides(self):
        spec = MachineSpec.coerce("default:eager_threshold=1024")
        assert spec.build().eager_threshold == 1024

    def test_flat_dict_form(self):
        spec = MachineSpec.coerce({"send_overhead": 1e-6})
        assert spec.build().send_overhead == 1e-6

    def test_coerce_from_config(self):
        config = MachineConfig(eager_threshold=2048)
        spec = MachineSpec.coerce(config)
        assert dict(spec.overrides) == {"eager_threshold": 2048}
        assert spec.build() == config

    def test_unknown_preset_fails_at_build(self):
        spec = MachineSpec(preset="fat-tree")
        with pytest.raises(KeyError, match="machine preset"):
            spec.build()


class TestNetworkSpec:
    def test_unpinned_seed_derives_from_run_seed(self):
        assert NetworkSpec().build(7) == NetworkConfig(seed=7)

    def test_pinned_seed_wins(self):
        assert NetworkSpec(seed=3).build(7).seed == 3

    def test_seed_in_overrides_normalises_to_field(self):
        spec = NetworkSpec.coerce({"jitter_sigma": 0.1, "seed": 5})
        assert spec.seed == 5
        assert dict(spec.overrides) == {"jitter_sigma": 0.1}

    def test_conflicting_seeds_rejected(self):
        with pytest.raises(ValueError, match="seed twice"):
            NetworkSpec(seed=1, overrides={"seed": 2})

    def test_noiseless_preset(self):
        config = NetworkSpec.coerce("noiseless").build(7)
        assert config.jitter_sigma == 0.0 and config.contention is False

    def test_from_config_round_trip(self):
        config = NetworkConfig(jitter_sigma=0.5, contention=False, seed=11)
        spec = NetworkSpec.from_config(config)
        assert spec.build(999) == config  # pinned seed survives

    def test_from_config_keeps_seed_derivable(self):
        config = NetworkConfig(jitter_sigma=0.5)
        assert NetworkSpec.from_config(config).build(7).seed == 7


class TestPolicyAndPredictorSpecs:
    def test_default_policy_is_standard(self):
        assert isinstance(PolicySpec().build(), StandardFlowControl)

    def test_alias_and_params(self):
        policy = PolicySpec.coerce("credit:horizon=3").build()
        assert isinstance(policy, PredictiveCreditPolicy)
        assert policy.horizon == 3

    def test_rendezvous_alias(self):
        assert isinstance(
            PolicySpec.coerce("rendezvous").build(), AlwaysRendezvousFlowControl
        )

    def test_unknown_policy_fails_at_build(self):
        with pytest.raises(KeyError, match="policy"):
            PolicySpec(kind="nope").build()

    def test_predictor_defaults_are_paper_configuration(self):
        predictor = PredictorSpec().factory()()
        # The registry pre-sets the paper's evaluation parameters.
        assert predictor._dpd.window_size == 24
        assert predictor._dpd.max_period == 256

    def test_predictor_window_alias(self):
        spec = PredictorSpec.coerce("periodicity:window=16,horizon=3")
        assert spec.horizon == 3
        assert spec.factory()()._dpd.window_size == 16

    def test_factory_returns_fresh_instances(self):
        factory = PredictorSpec().factory()
        assert factory() is not factory()


class TestTraceSpec:
    def test_coercions(self):
        assert TraceSpec.coerce(False) == TraceSpec(enabled=False)
        assert TraceSpec.coerce("out.jsonl") == TraceSpec(path="out.jsonl")
        assert TraceSpec.coerce(None) == TraceSpec()

    def test_path_with_disabled_tracing_rejected(self):
        with pytest.raises(ValueError, match="disabled"):
            TraceSpec(enabled=False, path="out.jsonl")


class TestScenarioSpec:
    def test_string_fields_coerce_on_construction(self):
        spec = ScenarioSpec(
            workload="bt.9:scale=0.2",
            policy="credit:horizon=3",
            network="noiseless",
            predictor="periodicity:window=16",
        )
        assert spec.workload == WorkloadSpec("bt", 9, scale=0.2)
        assert spec.policy.kind == "credit"
        assert spec.network.preset == "noiseless"
        assert spec.label == "bt.9"

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown scenario spec keys"):
            ScenarioSpec.from_dict({"workload": "bt.4", "wrokload": "typo"})

    def test_from_dict_requires_workload(self):
        with pytest.raises(ValueError, match="workload"):
            ScenarioSpec.from_dict({"seed": 1})

    def test_dict_round_trip(self):
        spec = ScenarioSpec(
            workload="bt.9:scale=0.2",
            seed=7,
            policy="credit:horizon=3",
            network={"overrides": {"jitter_sigma": 0.1}},
            name="my-cell",
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_from_toml(self, tmp_path):
        path = tmp_path / "scenario.toml"
        path.write_text(
            'seed = 7\nworkload = "bt.4:scale=0.05"\npolicy = "credit"\n',
            encoding="utf-8",
        )
        spec = ScenarioSpec.from_toml(path)
        assert spec.seed == 7
        assert spec.workload.label == "bt.4"
        assert spec.policy.kind == "credit"

    def test_with_overrides_recoerces(self):
        spec = ScenarioSpec(workload="bt.4")
        changed = spec.with_overrides(policy="rendezvous", seed=9)
        assert changed.policy.kind == "rendezvous" and changed.seed == 9
        assert spec.policy.kind == "standard"  # original untouched

    def test_cost_hint_weights_lu(self):
        lu = ScenarioSpec(workload="lu.8:scale=0.5")
        bt = ScenarioSpec(workload="bt.9:scale=0.5")
        assert lu.cost_hint() > bt.cost_hint()

    def test_specs_are_hashable_and_picklable(self):
        spec = ScenarioSpec(workload="bt.9:scale=0.2", policy="credit:horizon=3")
        assert hash(spec) == hash(ScenarioSpec.from_dict(spec.to_dict()))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
