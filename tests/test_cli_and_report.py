"""Tests for the CLI (repro.cli) and the report builder (repro.analysis.report)."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis.experiments import ExperimentContext
from repro.analysis.figures_accuracy import figure3
from repro.analysis.report import (
    ReproductionReport,
    accuracy_figure_table,
    build_report,
    dict_rows_table,
)
from repro.cli import build_parser, main


class TestReportHelpers:
    def test_dict_rows_table_formats_floats(self):
        text = dict_rows_table("t", [{"a": 1.23456, "b": "x"}])
        assert "1.235" in text and "x" in text

    def test_dict_rows_table_empty(self):
        assert "(no data)" in dict_rows_table("t", [])

    def test_accuracy_figure_table(self, paper_grid):
        configs = [c for c in paper_grid.configurations() if c.label == "bt.4"]
        figure = figure3(paper_grid, configurations=configs)
        text = accuracy_figure_table(figure, "note")
        assert "bt.4" in text and "sender +1" in text

    def test_report_object_accessors(self):
        report = ReproductionReport(seed=1, scale=0.1)
        report.add("Alpha", "body-a")
        report.add("Beta", "body-b")
        assert report.section("Alpha").body == "body-a"
        with pytest.raises(KeyError):
            report.section("Gamma")
        rendered = report.render()
        assert "## Alpha" in rendered and "## Beta" in rendered
        assert "seed=1" in rendered


class TestBuildReport:
    def test_figures_only_report(self, paper_grid, monkeypatch):
        # The session's grid, extensions/ablations skipped: a structural
        # check.  ``jobs`` reaches the context's prewarm; the grid is cached,
        # so it starts no pool.
        prewarms = []
        run_all = ExperimentContext.run_all

        def recording(self, jobs=None):
            prewarms.append(jobs)
            return run_all(self, jobs=jobs)

        monkeypatch.setattr(ExperimentContext, "run_all", recording)
        report = build_report(
            context=paper_grid, include_extensions=False, include_ablations=False, jobs=2
        )
        assert prewarms[:1] == [2]
        titles = [section.title for section in report.sections]
        assert titles == ["Table 1", "Figure 1", "Figure 2", "Figure 3", "Figure 4"]
        assert "bt.9" in report.section("Table 1").body
        assert report.elapsed_seconds > 0.0


class TestCLIParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_arguments(self):
        args = build_parser().parse_args(["run", "bt", "--nprocs", "4", "--scale", "0.1"])
        assert args.command == "run"
        assert args.workload == "bt" and args.nprocs == 4

    def test_unknown_workload_rejected(self, capsys):
        # Free-form shorthands ("replay:file=...") mean the workload argument
        # can no longer be parse-time choices; rejection moved to _cmd_run.
        assert main(["run", "not-a-workload", "--nprocs", "4"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_report_flags(self):
        args = build_parser().parse_args(["report", "--skip-extensions", "--skip-ablations"])
        assert args.skip_extensions and args.skip_ablations
        assert args.jobs is None

    def test_report_jobs_flag(self):
        args = build_parser().parse_args(["report", "--jobs", "4"])
        assert args.jobs == 4

    def test_run_policy_flag(self):
        args = build_parser().parse_args(
            ["run", "bt", "--nprocs", "4", "--policy", "credit:horizon=3"]
        )
        assert args.policy == "credit:horizon=3"

    def test_sweep_arguments(self):
        args = build_parser().parse_args(
            ["sweep", "spec.toml", "--jobs", "2", "--out", "outdir", "--save-traces"]
        )
        assert args.command == "sweep"
        assert args.spec == "spec.toml"
        assert args.jobs == 2 and args.out == "outdir" and args.save_traces

    def test_list_json_flag(self):
        assert build_parser().parse_args(["list", "--json"]).json
        assert not build_parser().parse_args(["list"]).json


class TestCLICommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bt" in out and "sw.32" in out
        assert "serve" in out and "repro-serve-snapshot" in out

    def test_run_and_save_traces(self, tmp_path, capsys):
        trace_file = tmp_path / "bt4.jsonl"
        code = main(
            [
                "run",
                "bt",
                "--nprocs",
                "4",
                "--scale",
                "0.05",
                "--seed",
                "7",
                "--save-traces",
                str(trace_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "messages_sent" in out
        assert trace_file.exists()

        # And predict from the saved traces.
        code = main(["predict", "--traces", str(trace_file), "--rank", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "prediction accuracy" in out
        assert "+5" in out

    def test_predict_by_simulation(self, capsys):
        code = main(
            ["predict", "--workload", "ring-exchange", "--nprocs", "4", "--scale", "0.2"]
        )
        assert code == 0
        assert "sender" in capsys.readouterr().out

    def test_predict_without_source_errors(self, capsys):
        assert main(["predict"]) == 2
        assert "requires" in capsys.readouterr().err

    def test_predict_rank_out_of_range(self, tmp_path, capsys):
        trace_file = tmp_path / "t.jsonl"
        main(
            ["run", "ring-exchange", "--nprocs", "4", "--scale", "0.05", "--save-traces", str(trace_file)]
        )
        capsys.readouterr()
        assert main(["predict", "--traces", str(trace_file), "--rank", "9"]) == 2

    def test_table1_small_scale(self, capsys):
        assert main(["table1", "--scale", "0.02", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "bt.25" in out and "paper" in out

    def test_run_with_jitter_override(self, capsys):
        code = main(
            ["run", "ring-exchange", "--nprocs", "4", "--scale", "0.05", "--jitter", "0.0"]
        )
        assert code == 0

    def test_run_with_policy_shorthand(self, capsys):
        code = main(
            [
                "run",
                "bt",
                "--nprocs", "4",
                "--scale", "0.05",
                "--policy", "credit:horizon=3",
            ]
        )
        assert code == 0
        assert "messages_sent" in capsys.readouterr().out

    def test_list_json_registries(self, capsys):
        assert main(["list", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert "bt" in listing["workloads"]
        assert len(listing["paper_configurations"]) == 19
        assert listing["paper_configurations"][0]["label"]
        policy_names = {entry["name"] for entry in listing["policies"]}
        assert "standard" in policy_names and "predictive-credits" in policy_names
        assert any(
            "credit" in entry["aliases"]
            for entry in listing["policies"]
            if entry["name"] == "predictive-credits"
        )
        assert {entry["name"] for entry in listing["network_presets"]} >= {
            "default",
            "noiseless",
        }
        assert any(entry["name"] == "periodicity" for entry in listing["predictors"])
        serve = listing["serve"]
        assert serve["transports"] == ["tcp", "stdin"]
        assert "observe" in serve["ops"] and "snapshot" in serve["ops"]
        assert serve["snapshot_format"] == {"name": "repro-serve-snapshot", "version": 4}
        assert serve["default_predictor"] == "periodicity"
        assert serve["routing"] == "crc32(key) % shards"
        # Two drains; partitioning is engine_jobs, not a third engine.
        assert [entry["name"] for entry in listing["engines"]] == ["auto", "scalar"]
        assert "parallel_info" in listing["engine_jobs"]["engages_when"]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("engine", ["parallel", "vectorised"])
    def test_retired_engine_is_one_argparse_line(self, command, engine, capsys):
        target = "bt.4" if command == "run" else "sweep.toml"
        with pytest.raises(SystemExit) as excinfo:
            main([command, target, "--engine", engine])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert errors == [
            f"repro {command}: error: argument --engine: invalid choice: "
            f"'{engine}' (choose from 'auto', 'scalar')"
        ]


class TestCLIBuildErrorsAreOneLine:
    """What building or loading a scenario raises is a usage error: one
    ``cannot run scenario:`` line on stderr, exit 2, no traceback (for
    ``repro serve``, ``cannot build the serve service:``).  A ``KeyError``
    prints its message, not its quoted ``repr``."""

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            pytest.param(
                ["run", "bt", "--nprocs", "4", "--policy", "nope"],
                "unknown policy 'nope'",
                id="unknown-policy",
            ),
            pytest.param(
                ["run", "bt", "--scale", "0.02"],
                "nprocs must be positive, got 0",
                id="no-nprocs",
            ),
            pytest.param(
                ["run", "bt.4:scale=0.02,bogus=1"],
                "unexpected keyword argument 'bogus'",
                id="unknown-workload-keyword",
            ),
            pytest.param(
                ["run", "bt.4", "--policy", "credit:bogus=1"],
                "unexpected keyword argument 'bogus'",
                id="unknown-policy-keyword",
            ),
            pytest.param(
                ["run", "bt.4", "--engine-jobs", "-1"],
                "engine_jobs must be positive",
                id="negative-engine-jobs",
            ),
            pytest.param(
                ["run", "bt.4", "--jitter", "-1"],
                "jitter_sigma must be non-negative",
                id="negative-jitter",
            ),
            pytest.param(
                ["run", "bt.4:scale=x"], "not supported between", id="scale-not-a-number"
            ),
            pytest.param(
                ["predict", "--traces", "/nonexistent"],
                "No such file or directory",
                id="predict-missing-trace-file",
            ),
            pytest.param(
                ["run", "bt", "--nprocs", "4", "--policy", "nope"],
                "cannot run scenario: unknown policy 'nope'; available: ",
                id="unknown-policy-unquoted",
            ),
            pytest.param(
                ["serve", "--stdin", "--predictor", "nosuch"],
                "cannot build the serve service: unknown predictor 'nosuch'; available: ",
                id="unknown-serve-predictor-unquoted",
            ),
            pytest.param(
                ["serve", "--stdin", "--predictor", "periodicity:mismatch_tolerance=1"],
                "predictor 'periodicity': ",
                id="retired-serve-predictor-keyword",
            ),
        ],
    )
    def test_exit_two_with_one_line(self, argv, fragment, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(("cannot run scenario: ", "cannot build the serve service: "))
        assert fragment in captured.err
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1

    def test_simulation_error_still_propagates(self, monkeypatch):
        # SimulationError is a RuntimeError: a deadlock or a blown event
        # budget in the run itself is not a usage error and keeps its
        # traceback.
        from repro.scenario import Scenario
        from repro.sim.errors import SimulationError

        def blown(self):
            raise SimulationError("event budget exhausted")

        monkeypatch.setattr(Scenario, "run", blown)
        with pytest.raises(SimulationError):
            main(["run", "bt.4"])


class TestCLIPredictTracesRoundTrip:
    """CLI `predict --traces` on a file from `run --save-traces` (the v2
    columnar round trip through the CLI path) must reproduce the on-the-fly
    simulation accuracies exactly."""

    def test_v2_round_trip_matches_simulation(self, tmp_path, capsys):
        trace_file = tmp_path / "bt4.jsonl"
        common = ["--nprocs", "4", "--scale", "0.05", "--seed", "7"]
        assert main(["run", "bt", *common, "--save-traces", str(trace_file)]) == 0
        capsys.readouterr()

        # The CLI writes the current (v2, columnar) format.
        header = json.loads(trace_file.read_text(encoding="utf-8").splitlines()[0])
        assert header["format"] == "repro-trace" and header["version"] == 2
        assert header["metadata"]["workload"] == "bt"
        assert header["metadata"]["seed"] == 7

        assert main(["predict", "--traces", str(trace_file), "--rank", "3"]) == 0
        from_file = capsys.readouterr().out
        assert main(["predict", "--workload", "bt", *common, "--rank", "3"]) == 0
        from_simulation = capsys.readouterr().out
        # Same accuracy table rows (titles differ: file label vs workload label).
        assert from_file.splitlines()[2:] == from_simulation.splitlines()[2:]
        assert "+5" in from_file


class TestCLISweep:
    def test_sweep_missing_spec_errors(self, tmp_path, capsys):
        assert main(["sweep", str(tmp_path / "nope.toml")]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_sweep_malformed_spec_errors_cleanly(self, tmp_path, capsys):
        # Coercion raises TypeError (workload = 9) — still the friendly path.
        bad = tmp_path / "bad.toml"
        bad.write_text("[base]\nworkload = 9\n", encoding="utf-8")
        assert main(["sweep", str(bad)]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_sweep_runs_and_writes_summary(self, tmp_path, capsys):
        spec = tmp_path / "sweep.toml"
        spec.write_text(
            "[base]\n"
            'workload = "bt.4:scale=0.02"\n'
            "seed = 3\n"
            "[grid]\n"
            '"network.overrides.jitter_sigma" = [0.0, 0.2]\n',
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        assert main(["sweep", str(spec), "--out", str(out_dir), "--save-traces"]) == 0
        out = capsys.readouterr().out
        assert "bt.4" in out and "makespan" in out
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        assert summary["format"] == "repro-sweep-summary"
        assert len(summary["cells"]) == 2
        assert summary["cells"][0]["spec"]["network"]["overrides"]["jitter_sigma"] == 0.0
        trace_files = sorted(p.name for p in out_dir.glob("*.traces.jsonl"))
        assert trace_files == [
            "cell-00-bt.4.traces.jsonl",
            "cell-01-bt.4.traces.jsonl",
        ]

    def test_sweep_jobs_summary_byte_identical(self, tmp_path, capsys):
        spec = tmp_path / "sweep.toml"
        spec.write_text(
            "[base]\n"
            'workload = "bt.4:scale=0.02"\n'
            "seed = 3\n"
            "[grid]\n"
            '"network.overrides.jitter_sigma" = [0.0, 0.2]\n'
            "[[cells]]\n"
            'workload = "cg:nprocs=4,scale=0.02"\n',
            encoding="utf-8",
        )
        seq_dir, par_dir = tmp_path / "seq", tmp_path / "par"
        assert main(["sweep", str(spec), "--out", str(seq_dir)]) == 0
        assert main(["sweep", str(spec), "--jobs", "2", "--out", str(par_dir)]) == 0
        capsys.readouterr()
        assert (seq_dir / "summary.json").read_bytes() == (
            par_dir / "summary.json"
        ).read_bytes()


    @pytest.fixture
    def one_cell(self, tmp_path):
        spec = tmp_path / "one.toml"
        spec.write_text('workload = "bt.4:scale=0.02"\nseed = 3\n', encoding="utf-8")
        return str(spec)

    def test_save_traces_without_out_is_a_usage_error(self, one_cell, capsys):
        assert main(["sweep", one_cell, "--save-traces"]) == 2
        captured = capsys.readouterr()
        assert "--save-traces needs --out" in captured.err
        assert captured.out == ""  # refused before any cell ran

    @pytest.mark.parametrize("timeout", ["0", "-1.5"])
    def test_non_positive_timeout_is_a_usage_error(self, one_cell, timeout, capsys):
        assert main(["sweep", one_cell, "--timeout", timeout]) == 2
        captured = capsys.readouterr()
        assert "timeout must be positive" in captured.err
        assert "FAILED" not in captured.out and captured.out == ""


class TestBenchBaseline:
    #: The rows README's perf table cites, by the frozen artefact holding them.
    CITED = {
        "BENCH_dpd.json": ["test_bench_dpd_observe_detect"],
        "BENCH_sim.json": ["test_bench_bt9_simulation"],
        "BENCH_trace.json": ["test_bench_trace_pipeline"],
        "BENCH_feed.json": ["test_bench_feed_bt9_oparray"],
        "BENCH_scale.json": [
            "test_bench_scale_curve[bt-256-vectorised]",
            "test_bench_scale_parallel[16384-parallel]",
        ],
        "BENCH_serve.json": ["test_bench_serve_ingest_cold[1000000]"],
    }

    def test_repo_artefacts_record_their_baselines(self):
        # The six artefacts are frozen history: nothing regenerates them, so
        # each must keep parsing, keep the rows README cites and (all but the
        # scale curves, which never had one) its recorded baseline section.
        root = pathlib.Path(__file__).resolve().parents[1]
        for name, rows in self.CITED.items():
            data = json.loads((root / name).read_text(encoding="utf-8"))
            for row in rows:
                assert data["benchmarks"][row]["mean_s"] > 0, (name, row)
            if name != "BENCH_scale.json":
                assert "baseline" in data, f"{name} lost its baseline section"
                assert data["baseline"]["benchmarks"], name

    def test_bench_command_is_gone(self, capsys):
        # `python -m repro bench` was the second harness; bench/run.py is the
        # one measured path now.
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bench'" in err
        assert "{run,sweep,predict,table1,report,serve,list}" in err


class TestBenchmarksCollection:
    """A bare ``pytest`` run is the correctness gate; ``benchmarks/`` runs by name."""

    ROOT = pathlib.Path(__file__).resolve().parents[1]

    def test_root_conftest_ignores_benchmarks(self):
        spec = importlib.util.spec_from_file_location("root_conftest", self.ROOT / "conftest.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert "benchmarks" in module.collect_ignore

    def test_named_benchmark_suites_still_collect(self):
        files = ["benchmarks/test_bench_table1.py", "benchmarks/test_bench_scale.py"]
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"))
        completed = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files],
            cwd=self.ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        ids = completed.stdout.splitlines()
        assert "benchmarks/test_bench_table1.py::test_bench_table1" in ids
        assert (
            "benchmarks/test_bench_scale.py::TestScaleMicrobenchmarks::"
            "test_bench_scale_curve[bt-64-scalar]" in ids
        )
