"""Tests for the sweep engine: expansion, TOML loading, sharded execution."""

from pathlib import Path

import pytest

from repro.scenario import ScenarioSpec, Sweep

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"


class TestExpansion:
    def test_grid_is_row_major_cartesian(self):
        sweep = Sweep(
            base={"workload": "bt.4:scale=0.02", "seed": 3},
            grid={
                "workload.nprocs": [4, 9],
                "network.overrides.jitter_sigma": [0.0, 0.2],
            },
        )
        cells = sweep.expand()
        assert [
            (spec.workload.nprocs, dict(spec.network.overrides)["jitter_sigma"])
            for spec in cells
        ] == [(4, 0.0), (4, 0.2), (9, 0.0), (9, 0.2)]
        # Grid patches don't leak between cells.
        assert cells[0].seed == cells[3].seed == 3

    def test_patch_cells_merge_over_base(self):
        sweep = Sweep(
            base={"workload": "bt.4:scale=0.02", "seed": 3, "policy": "credit"},
            cells=[{"workload": "cg:nprocs=4,scale=0.02"}],
        )
        (cell,) = sweep.expand()
        assert cell.workload.name == "cg"
        assert cell.policy.kind == "credit"  # inherited from base
        assert cell.seed == 3

    def test_full_spec_cells_without_base(self):
        sweep = Sweep(cells=[ScenarioSpec(workload="bt.4"), "cg.8"])
        labels = [spec.label for spec in sweep.expand()]
        assert labels == ["bt.4", "cg.8"]

    def test_base_alone_is_one_cell(self):
        sweep = Sweep(base={"workload": "bt.4"})
        assert [spec.label for spec in sweep.expand()] == ["bt.4"]

    def test_grid_after_cells_ordering(self):
        sweep = Sweep(
            base={"workload": "bt.4:scale=0.02"},
            grid={"seed": [1, 2]},
            cells=[{"workload": "cg:nprocs=4,scale=0.02"}],
        )
        labels = [(spec.label, spec.seed) for spec in sweep.expand()]
        assert labels == [("bt.4", 1), ("bt.4", 2), ("cg.4", 2003)]

    def test_grid_without_base_rejected(self):
        with pytest.raises(ValueError, match="needs a base"):
            Sweep(grid={"seed": [1]})

    def test_empty_grid_values_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            Sweep(base={"workload": "bt.4"}, grid={"seed": []})

    def test_shared_trace_path_rejected(self, tmp_path):
        # A base trace.path inherited by every grid cell would make the
        # cells overwrite (or race on) one file.
        sweep = Sweep(
            base={"workload": "bt.4", "trace": str(tmp_path / "t.jsonl")},
            grid={"seed": [1, 2]},
        )
        with pytest.raises(ValueError, match="share a trace save path"):
            sweep.expand()

    def test_distinct_trace_paths_allowed(self, tmp_path):
        sweep = Sweep(
            cells=[
                {"workload": "bt.4", "trace": str(tmp_path / "a.jsonl")},
                {"workload": "cg.4", "trace": str(tmp_path / "b.jsonl")},
            ]
        )
        assert len(sweep.expand()) == 2

    def test_grid_path_through_scalar_rejected(self):
        # Validation happens at construction now, not at expand().
        with pytest.raises(ValueError, match="scalar field 'seed'"):
            Sweep(base={"workload": "bt.4"}, grid={"seed.sub": [1]})

    def test_grid_path_typo_suggests_nearest(self):
        with pytest.raises(ValueError, match="jitter_sigma"):
            Sweep(
                base={"workload": "bt.4"},
                grid={"network.overrides.jitter_sgima": [0.1]},
            )

    def test_grid_path_unknown_head_rejected(self):
        with pytest.raises(ValueError, match="did you mean 'network'"):
            Sweep(base={"workload": "bt.4"}, grid={"netwrok.latency": [1e-6]})

    def test_grid_path_too_deep_rejected(self):
        with pytest.raises(ValueError, match="too deep"):
            Sweep(
                base={"workload": "bt.4"},
                grid={"network.overrides.latency.extra": [1]},
            )

    def test_grid_flat_config_field_and_param_paths_accepted(self):
        sweep = Sweep(
            base={"workload": "bt.4"},
            grid={
                "network.latency": [1e-6, 2e-6],
                "faults.drop_rate": [0.0, 0.01],
                "workload.scale": [0.05],
                "policy.params.horizon": [5],
                "seed": [1, 2],
                "machine.eager_threshold": [1024],
                "faults.overrides.drop_rate": [0.0],
                "predictor.horizon": [3],
                "workload": ["bt.4:scale=0.05"],
                "trace.path": [None],
            },
        )
        assert len(sweep.expand()) == 8

    @pytest.mark.parametrize(
        "path, refusal",
        [
            (
                "netwrok.latency",
                "grid path 'netwrok.latency': 'netwrok' is not a scenario spec "
                "field; did you mean 'network'?",
            ),
            (
                "seed.sub",
                "grid path 'seed.sub' descends into scalar field 'seed'; use "
                "'seed' itself",
            ),
            (
                "network.jitter_sgima",
                "grid path 'network.jitter_sgima': 'jitter_sgima' is neither a "
                "network spec key nor a NetworkConfig field; did you mean "
                "'jitter_sigma'?",
            ),
            (
                "network.overrides.jitter_sgima",
                "grid path 'network.overrides.jitter_sgima': 'jitter_sgima' is "
                "not a NetworkConfig field; did you mean 'jitter_sigma'?",
            ),
            (
                "network.overrides.latency.extra",
                "grid path 'network.overrides.latency.extra' is too deep for "
                "'network'; sweep 'network.<field>' or 'network.overrides.<field>'",
            ),
            (
                "policy.params.a.b",
                "grid path 'policy.params.a.b' is too deep for 'policy'; sweep "
                "'policy.<key>' or 'policy.params.<key>'",
            ),
            (
                "trace.enabled.x",
                "grid path 'trace.enabled.x': trace keys are 'enabled' and "
                "'path' (one level deep)",
            ),
            (
                "trace.colour",
                "grid path 'trace.colour': trace keys are 'enabled' and 'path'",
            ),
            ("", "empty grid path"),
        ],
    )
    def test_grid_path_refusals_in_full(self, path, refusal):
        # The whole text, not a fragment: the spec tree checks grid paths
        # now and must say exactly what the sweep module used to.
        with pytest.raises(ValueError) as raised:
            Sweep(base={"workload": "bt.4"}, grid={path: [1]})
        assert str(raised.value) == refusal

    def test_network_drop_knob_is_not_a_grid_axis(self):
        # Drops are swept through the fault plane ('faults.overrides.drop_rate').
        with pytest.raises(ValueError) as raised:
            Sweep(base={"workload": "bt.4"}, grid={"network.overrides.drop_probability": [0.1]})
        assert str(raised.value) == (
            "grid path 'network.overrides.drop_probability': 'drop_probability' "
            "is not a NetworkConfig field; valid keys: ['bandwidth', 'contention', "
            "'jitter_sigma', 'latency', 'seed']"
        )


class TestTomlLoading:
    def test_sweep_toml(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text(
            'name = "t"\n'
            "[base]\n"
            'workload = "bt.4:scale=0.02"\n'
            "seed = 3\n"
            "[grid]\n"
            '"network.overrides.jitter_sigma" = [0.0, 0.2]\n'
            "[[cells]]\n"
            'workload = "cg:nprocs=4,scale=0.02"\n',
            encoding="utf-8",
        )
        sweep = Sweep.from_toml(path)
        assert sweep.name == "t"
        assert [spec.label for spec in sweep.expand()] == ["bt.4", "bt.4", "cg.4"]

    def test_single_scenario_toml_becomes_one_cell(self, tmp_path):
        path = tmp_path / "one.toml"
        path.write_text('workload = "bt.9:scale=0.05"\nseed = 7\n', encoding="utf-8")
        sweep = Sweep.from_toml(path)
        (spec,) = sweep.expand()
        assert spec == ScenarioSpec(workload="bt.9:scale=0.05", seed=7)

    def test_unknown_sweep_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep keys"):
            Sweep.from_dict({"base": {"workload": "bt.4"}, "grd": {}})

    def test_shipped_example_expands(self):
        sweep = Sweep.from_toml(EXAMPLES_DIR / "sweep_paper_subset.toml")
        cells = sweep.expand()
        assert len(cells) == 4
        assert [spec.label for spec in cells] == ["bt.4", "bt.4", "cg.4", "is.4"]
        assert cells[3].policy.kind == "credit"


class TestRunAll:
    @pytest.fixture(scope="class")
    def sweep(self):
        return Sweep(
            base={"workload": "bt.4:scale=0.02", "seed": 3},
            grid={"network.overrides.jitter_sigma": [0.0, 0.2]},
            cells=[{"workload": "cg:nprocs=4,scale=0.02"}],
        )

    def test_sequential_results_in_expansion_order(self, sweep):
        results = sweep.run_all()
        assert [r.label for r in results] == ["bt.4", "bt.4", "cg.4"]
        # The zero-jitter cell really ran a different network.
        assert results[0].makespan != results[1].makespan

    def test_sharded_bit_identical_to_sequential(self, sweep):
        sequential = sweep.run_all()
        sharded = sweep.run_all(jobs=2)
        for seq, par in zip(sequential, sharded):
            assert seq.spec == par.spec
            assert seq.makespan == par.makespan
            assert seq.stats.summary() == par.stats.summary()
            assert (
                seq.trace().logical.time_array().tolist()
                == par.trace().logical.time_array().tolist()
            )
            assert (
                seq.trace().physical.time_array().tolist()
                == par.trace().physical.time_array().tolist()
            )

    def test_empty_sweep(self):
        assert Sweep().run_all() == []


class TestParallelSweepKnobs:
    def test_cost_hint_discounts_parallel_width(self):
        base = ScenarioSpec(workload="bt.9:scale=0.03")
        for engine in ("auto", "scalar"):
            par = base.with_overrides(engine=engine, engine_jobs=4)
            assert par.cost_hint() == pytest.approx(base.cost_hint() / 4)
        # engine_jobs=1 is in-process, and 0 is not known until the run.
        for jobs in (0, 1):
            assert base.with_overrides(engine_jobs=jobs).cost_hint() == base.cost_hint()

    def test_pool_capped_when_oversubscribed(self, monkeypatch):
        import repro.scenario.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 4)
        sweep = Sweep(
            base={"workload": "bt.4:scale=0.02", "seed": 1}, grid={"seed": [1, 2]}
        )
        with pytest.warns(RuntimeWarning, match="oversubscribe"):
            results = sweep.run_all(jobs=2, engine_jobs=4)
        assert len(results) == 2
        assert all(not isinstance(r, Exception) for r in results)

    def test_no_cap_within_cpu_budget(self, monkeypatch):
        import warnings

        import repro.scenario.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 64)
        sweep = Sweep(base={"workload": "bt.4:scale=0.02", "seed": 1})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results = sweep.run_all(jobs=2, engine_jobs=4)
        assert len(results) == 1


class TestAccuracyTable:
    """sweep_accuracy_table over finished sweeps (and the CLI flag)."""

    def test_paper_subset_rows(self):
        from repro.scenario import sweep_accuracy_table

        sweep = Sweep.from_toml(EXAMPLES_DIR / "sweep_paper_subset.toml")
        results = sweep.run_all()
        rows = sweep_accuracy_table(results)
        assert len(rows) == len(results)
        assert [row["cell"] for row in rows] == list(range(len(results)))
        for row, outcome in zip(rows, results):
            assert row["status"] == "ok"
            assert row["label"] == outcome.spec.label
            assert row["policy"] == outcome.spec.policy.kind
            assert row["stream_length"] > 0
            # One percentage per prediction horizon, +1 first; all in [0, 100].
            assert len(row["accuracy_pct"]) == outcome.spec.predictor.horizon
            assert all(0.0 <= pct <= 100.0 for pct in row["accuracy_pct"])
            assert 0.0 <= row["coverage_pct"] <= 100.0
            # Consistent with calling predict() on the cell directly.
            accuracy = outcome.predict(kind="sender", level="logical")
            assert row["accuracy_pct"][0] == round(accuracy.as_percentages()[0], 2)

    def test_untraced_cell_keeps_slot_without_metrics(self):
        from repro.scenario import sweep_accuracy_table

        sweep = Sweep(
            base={
                "workload": "bt.4:scale=0.03",
                "seed": 5,
                "trace": {"enabled": False},
            }
        )
        (row,) = sweep_accuracy_table(sweep.run_all())
        assert row["status"] == "untraced"
        assert row["accuracy_pct"] is None
        assert row["coverage_pct"] is None

    def test_cli_accuracy_table_flag(self, capsys):
        from repro.cli import main

        code = main(
            [
                "sweep",
                str(EXAMPLES_DIR / "sweep_paper_subset.toml"),
                "--accuracy-table",
                "--engine",
                "scalar",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sender prediction accuracy" in out
        assert "+1" in out and "coverage" in out
