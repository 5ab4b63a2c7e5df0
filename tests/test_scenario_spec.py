"""Tests for the declarative spec tree (repro.scenario.spec + shorthand)."""

import dataclasses
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictive.credit_policy import PredictiveCreditPolicy
from repro.runtime.protocol import AlwaysRendezvousFlowControl, StandardFlowControl
from repro.scenario.shorthand import coerce_scalar, parse_params, split_shorthand
from repro.scenario.spec import (
    FaultSpec,
    MachineSpec,
    NetworkSpec,
    PolicySpec,
    PredictorSpec,
    ScenarioSpec,
    TraceSpec,
    WorkloadSpec,
)
from repro.sim.faults import FaultConfig
from repro.sim.machine import MachineConfig
from repro.sim.network import NetworkConfig
from repro.workloads.bt import BTWorkload

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"


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


class TestFormatsHoldStill:
    """Identities and layouts that are on disk (sweep checkpoints are named
    by ``content_hash()``, snapshot manifests embed ``PredictorSpec.to_dict()``):
    every value here was captured before the node classes shared a base."""

    @pytest.mark.parametrize(
        "build, expected",
        [
            pytest.param(
                lambda: ScenarioSpec(workload="bt.9:scale=0.2"),
                "fba339a23938b196",
                id="string-forms",
            ),
            pytest.param(
                lambda: ScenarioSpec(
                    workload="sw.32",
                    policy="credit:horizon=5",
                    network="noiseless:latency=1e-6,seed=7",
                    faults="drop:rate=0.01,seed=7",
                    predictor="periodicity:window=12,horizon=3",
                    seed=11,
                    name="x",
                ),
                "7a377ee0d420927f",
                id="every-node-shorthand",
            ),
            pytest.param(
                lambda: ScenarioSpec(
                    workload={"name": "replay", "file": "examples/sample_trace.jsonl"},
                    trace=False,
                    machine={"eager_threshold": 1024},
                ),
                "da086cb0284188ed",
                id="dict-and-replay-forms",
            ),
            pytest.param(
                lambda: ScenarioSpec(
                    workload="cg:nprocs=4,scale=0.05",
                    network=NetworkConfig(jitter_sigma=0.3, seed=5),
                    faults=FaultConfig(drop_rate=0.1),
                    machine=MachineConfig(eager_threshold=2048),
                ),
                "e6e8ddd97a9c8f6b",
                id="config-instances",
            ),
        ],
    )
    def test_golden_content_hashes(self, build, expected):
        assert build().content_hash() == expected

    def test_golden_hashes_of_the_shipped_sweep(self):
        from repro.scenario import Sweep

        cells = Sweep.from_toml(EXAMPLES_DIR / "sweep_paper_subset.toml").expand()
        assert [spec.content_hash() for spec in cells] == [
            "340af2ea7390f546",
            "e0ab8f1b15b7074d",
            "530a411431fced7e",
            "a17fb184a073870d",
        ]

    @pytest.mark.parametrize(
        "node, keys",
        [
            (MachineSpec(), ["preset", "overrides"]),
            (NetworkSpec(), ["preset", "seed", "overrides"]),
            (FaultSpec(), ["preset", "seed", "overrides"]),
            (PolicySpec(), ["kind", "params"]),
            (PredictorSpec(), ["kind", "horizon", "params"]),
            (
                WorkloadSpec("bt", 4),
                ["name", "nprocs", "scale", "iterations", "compute_time",
                 "compute_noise", "params"],
            ),
            (TraceSpec(), ["enabled", "path"]),
        ],
        ids=lambda value: type(value).__name__ if not isinstance(value, list) else "",
    )
    def test_to_dict_key_order(self, node, keys):
        assert list(node.to_dict()) == keys


#: Per component class: the name field, the parameter field, and one
#: registry name / parameter / value that class accepts.
_COMPONENTS = [
    (MachineSpec, "preset", "overrides", "default", "eager_threshold", 1024),
    (NetworkSpec, "preset", "overrides", "noiseless", "latency", 1e-6),
    (FaultSpec, "preset", "overrides", "drop", "drop_rate", 0.01),
    (PolicySpec, "kind", "params", "credit", "horizon", 3),
    (PredictorSpec, "kind", "params", "periodicity", "window", 16),
]


class TestEveryInputFormOfOneMeaning:
    @pytest.mark.parametrize(
        "cls, name_field, params_field, name, key, value",
        _COMPONENTS,
        ids=[row[0].__name__ for row in _COMPONENTS],
    )
    def test_forms_compare_equal(self, cls, name_field, params_field, name, key, value):
        assert cls.coerce(None) == cls() == cls.coerce(cls())
        bare = cls(**{name_field: name})
        assert cls.coerce(bare) is bare
        assert cls.coerce(name) == bare
        assert cls.coerce({name_field: name}) == bare
        full = cls(**{name_field: name, params_field: {key: value}})
        for form in (
            f"{name}:{key}={value}",
            {name_field: name, key: value},  # flat
            {name_field: name, params_field: {key: value}},  # nested
            {name_field: name, params_field: {key: "loses"}, key: value},  # flat wins
            full.to_dict(),
        ):
            assert cls.coerce(form) == full, form
        assert dict(getattr(full, params_field)) == {key: value}

    @pytest.mark.parametrize(
        "cls, config, flat",
        [
            (MachineSpec, MachineConfig(eager_threshold=2048), {"eager_threshold": 2048}),
            (
                NetworkSpec,
                NetworkConfig(jitter_sigma=0.3, seed=5),
                {"jitter_sigma": 0.3, "seed": 5},
            ),
            (NetworkSpec, NetworkConfig(jitter_sigma=0.3), {"jitter_sigma": 0.3}),
            (FaultSpec, FaultConfig(drop_rate=0.1, seed=9), {"drop_rate": 0.1, "seed": 9}),
        ],
    )
    def test_config_instance_form(self, cls, config, flat):
        spec = cls.coerce(config)
        assert spec == cls.coerce(flat)
        assert "seed" not in dict(spec.overrides)  # the field owns the seed
        if cls is MachineSpec:
            assert spec.build() == config
            return
        assert spec == cls.from_config(config) and spec.seed == config.seed
        # A pinned seed survives the round trip; an unpinned one follows the run.
        assert spec.build(77).seed == (77 if config.seed is None else config.seed)
        assert dataclasses.replace(spec.build(77), seed=config.seed) == config

    def test_fault_seed_pinned_twice_rejected(self):
        with pytest.raises(ValueError, match="fault spec pins seed twice: 1 and 2"):
            FaultSpec(seed=1, overrides={"seed": 2})
        with pytest.raises(ValueError, match="network spec pins seed twice: 1 and 2"):
            NetworkSpec(seed=1, overrides={"seed": 2})
        assert FaultSpec(seed=2, overrides={"seed": 2}) == FaultSpec(seed=2)


_names = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
_values = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False), _names,
)
_tables = st.dictionaries(_names.filter(lambda key: key != "seed"), _values, max_size=4)
_seeds = st.one_of(st.none(), st.integers(0, 2**31))
_nodes = st.one_of(
    st.builds(MachineSpec, preset=_names, overrides=_tables),
    st.builds(NetworkSpec, preset=_names, seed=_seeds, overrides=_tables),
    st.builds(FaultSpec, preset=_names, seed=_seeds, overrides=_tables),
    st.builds(PolicySpec, kind=_names, params=_tables),
    st.builds(PredictorSpec, kind=_names, horizon=st.integers(1, 64), params=_tables),
    st.builds(
        WorkloadSpec,
        name=_names,
        nprocs=st.integers(0, 4096),
        scale=st.one_of(st.none(), st.floats(0.01, 4.0)),
        iterations=st.one_of(st.none(), st.integers(1, 100)),
        params=_tables,
    ),
)


class TestNodeRoundTrips:
    @given(_nodes)
    @settings(max_examples=150, deadline=None)
    def test_dict_and_pickle_round_trip(self, node):
        cls = type(node)
        assert cls.coerce(node.to_dict()) == node
        clone = pickle.loads(pickle.dumps(node))
        assert clone == node and hash(clone) == hash(node)
