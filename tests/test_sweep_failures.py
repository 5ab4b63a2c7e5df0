"""Tests for fault-tolerant sweep execution: isolation, one run a cell, resume.

The acceptance bar: a sweep with k failing cells returns the n-k healthy
results plus k structured failure records, each cell run once; a worker
process dying mid-cell does not poison the batch; ``resume`` re-runs only
the cells that have not completed.
"""

import os

import pytest

from repro.scenario import (
    CachedCell,
    CellFailure,
    ScenarioResult,
    ScenarioSpec,
    Sweep,
    SweepAborted,
    cell_record,
)
import repro.scenario.sweep as sweep_module
from repro.workloads.base import Workload
from repro.workloads.registry import WORKLOAD_CLASSES


class _SuicideWorkload(Workload):
    """A workload whose rank program kills its process outright.

    Pool workers are forked while the registration fixture is active, so
    they inherit it and the crash happens inside a worker, not the parent.
    """

    name = "test-suicide"

    def default_iterations(self):
        return 1

    def program(self, ctx):
        os._exit(13)
        yield  # pragma: no cover

    def program_for(self, ctx):
        return self.program(ctx)


@pytest.fixture(autouse=True)
def _suicide_workload_registered():
    WORKLOAD_CLASSES[_SuicideWorkload.name] = _SuicideWorkload
    yield
    WORKLOAD_CLASSES.pop(_SuicideWorkload.name, None)


def _mixed_sweep():
    """Two healthy cells around one cell that raises at build time."""
    return Sweep(
        base={"workload": "bt.4", "seed": 7},
        cells=[
            {"workload": "bt.4:scale=0.05"},
            {"workload": {"name": "nosuch", "nprocs": 4}},
            {"workload": "cg.4:scale=0.05"},
        ],
    )


class TestCellIsolation:
    @pytest.mark.parametrize("jobs", [None, 2])
    def test_raising_cell_yields_failure_record(self, jobs):
        outcomes = _mixed_sweep().run_all(jobs=jobs)
        assert [type(o) for o in outcomes] == [
            ScenarioResult, CellFailure, ScenarioResult,
        ]
        failure = outcomes[1]
        assert failure.error_type == "KeyError"
        assert "nosuch" in failure.error_message
        record = failure.record()
        assert record["spec"]["workload"]["name"] == "nosuch"
        assert record["spec_hash"] == failure.spec.content_hash()

    def test_healthy_results_unaffected_by_failures(self):
        healthy = Sweep(
            base={"workload": "bt.4", "seed": 7},
            cells=[{"workload": "bt.4:scale=0.05"}, {"workload": "cg.4:scale=0.05"}],
        ).run_all()
        mixed = _mixed_sweep().run_all(jobs=2)
        assert cell_record(mixed[0]) == cell_record(healthy[0])
        assert cell_record(mixed[2]) == cell_record(healthy[1])

    def test_worker_death_isolated_and_charged_to_culprit(self):
        sweep = Sweep(
            base={"workload": "bt.4", "seed": 7},
            cells=[
                {"workload": "bt.4:scale=0.05"},
                {"workload": {"name": "test-suicide", "nprocs": 2}},
                {"workload": "cg.4:scale=0.05"},
            ],
        )
        outcomes = sweep.run_all(jobs=2)
        assert isinstance(outcomes[0], ScenarioResult)
        assert isinstance(outcomes[2], ScenarioResult)
        failure = outcomes[1]
        assert isinstance(failure, CellFailure)
        assert failure.error_type == "WorkerCrash"

    def test_fail_fast_raises_sweep_aborted(self):
        with pytest.raises(SweepAborted, match="nosuch"):
            _mixed_sweep().run_all(jobs=2, fail_fast=True)
        with pytest.raises(SweepAborted, match="nosuch"):
            _mixed_sweep().run_all(fail_fast=True)

    def test_timeout_fails_cell_with_time_limit(self):
        sweep = Sweep(cells=[ScenarioSpec(workload="lu.8", seed=1)])
        (failure,) = sweep.run_all(timeout=1e-9)
        assert isinstance(failure, CellFailure)
        assert failure.error_type == "TimeLimitExceeded"

    def test_simulation_error_in_pool_is_one_failure_record(self):
        sweep = Sweep(
            base={"workload": "bt.4", "seed": 7},
            cells=[
                {"workload": "bt.4:scale=0.05"},
                {"name": "budget", "max_events": 10},
            ],
        )
        outcomes = sweep.run_all(jobs=2)
        assert isinstance(outcomes[0], ScenarioResult)
        failure = outcomes[1]
        assert isinstance(failure, CellFailure)
        assert failure.error_type == "SimulationError"
        assert failure.record()["spec_hash"] == failure.spec.content_hash()

    def test_failure_records_deterministic_across_runs(self):
        records = []
        for _ in range(2):
            outcomes = _mixed_sweep().run_all(jobs=2)
            records.append([o.record() for o in outcomes if isinstance(o, CellFailure)])
        assert records[0] == records[1]

    @pytest.mark.parametrize("timeout", [0, -1.0])
    def test_non_positive_timeout_rejected(self, timeout):
        with pytest.raises(ValueError, match="timeout must be positive"):
            _mixed_sweep().run_all(timeout=timeout)

    def test_timeout_leaves_fast_cells_alone(self):
        sweep = Sweep(cells=[ScenarioSpec(workload="bt.4:scale=0.02", seed=1)])
        (result,) = sweep.run_all(timeout=300.0)
        assert isinstance(result, ScenarioResult)
        # The checkpoint/summary spec is the caller's, not the clamped copy.
        assert result.spec.max_wall_seconds is None


class TestResume:
    def test_checkpoints_written_for_successes_only(self, tmp_path):
        _mixed_sweep().run_all(out=tmp_path)
        checkpoints = sorted((tmp_path / "cells").glob("*.json"))
        assert len(checkpoints) == 2

    def test_resume_reruns_only_unfinished_cells(self, tmp_path, monkeypatch):
        sweep = _mixed_sweep()
        first = sweep.run_all(out=tmp_path)

        ran = []
        real_run_cell = sweep_module._run_cell

        def counting_run_cell(spec, timeout):
            ran.append(spec.label)
            return real_run_cell(spec, timeout)

        monkeypatch.setattr(sweep_module, "_run_cell", counting_run_cell)
        resumed = sweep.run_all(out=tmp_path, resume=True)
        assert ran == ["nosuch.4"]  # only the failed cell re-ran
        assert isinstance(resumed[0], CachedCell)
        assert isinstance(resumed[1], CellFailure)
        assert isinstance(resumed[2], CachedCell)
        # Cached records are exactly what a fresh run would have produced.
        assert resumed[0].record == cell_record(first[0])
        assert resumed[2].record == cell_record(first[2])

    def test_resume_completes_after_fixing_the_failing_cell(self, tmp_path):
        sweep = _mixed_sweep()
        sweep.run_all(out=tmp_path)
        fixed = Sweep(
            base={"workload": "bt.4", "seed": 7},
            cells=[
                {"workload": "bt.4:scale=0.05"},
                {"workload": "is.4:scale=0.1"},
                {"workload": "cg.4:scale=0.05"},
            ],
        )
        outcomes = fixed.run_all(out=tmp_path, resume=True)
        assert isinstance(outcomes[0], CachedCell)
        assert isinstance(outcomes[1], ScenarioResult)  # new spec: no checkpoint
        assert isinstance(outcomes[2], CachedCell)
        # Everything is checkpointed now; a further resume runs nothing.
        again = fixed.run_all(out=tmp_path, resume=True)
        assert all(isinstance(o, CachedCell) for o in again)

    def test_resume_requires_out(self):
        with pytest.raises(ValueError, match="resume"):
            _mixed_sweep().run_all(resume=True)

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda record, other: {}, id="empty-object"),
            pytest.param(lambda record, other: [], id="not-an-object"),
            pytest.param(lambda record, other: other, id="another-cells-record"),
            pytest.param(
                lambda record, other: {k: v for k, v in record.items() if k != "stats"},
                id="stats-removed",
            ),
        ],
    )
    def test_malformed_checkpoint_is_rerun_and_repaired(
        self, tmp_path, monkeypatch, damage
    ):
        import json

        sweep = _mixed_sweep()
        first = sweep.run_all(out=tmp_path)
        victim, other = (
            tmp_path / "cells" / f"{first[i].spec.content_hash()}.json" for i in (0, 2)
        )
        intact = victim.read_bytes()
        damaged = damage(json.loads(intact), json.loads(other.read_bytes()))
        victim.write_text(json.dumps(damaged), encoding="utf-8")

        ran = []
        real_run_cell = sweep_module._run_cell

        def counting_run_cell(spec, timeout):
            ran.append(spec.label)
            return real_run_cell(spec, timeout)

        monkeypatch.setattr(sweep_module, "_run_cell", counting_run_cell)
        resumed = sweep.run_all(out=tmp_path, resume=True)
        assert ran == ["bt.4", "nosuch.4"]  # the damaged cell and the failed one
        assert isinstance(resumed[0], ScenarioResult)
        assert cell_record(resumed[0]) == cell_record(first[0])
        assert isinstance(resumed[2], CachedCell)
        assert victim.read_bytes() == intact  # the file is repaired


class TestEachCellRunsOnce:
    @pytest.mark.parametrize("route", ["sequential", "pool", "quarantine"])
    def test_every_outcome_is_recorded_once_on_every_route(self, route, monkeypatch):
        # One rule: a cell that is always over its wall-clock budget and a
        # deterministic failure are each recorded once, and a healthy cell
        # as a clean run records it, whether the cells ran in-process, in the
        # shared pool, or (the first cell killed its worker) in single-worker
        # quarantine pools.
        first = (
            {"workload": {"name": "test-suicide", "nprocs": 2}}
            if route == "quarantine"
            else {"workload": "cg.4:scale=0.02"}
        )
        sweep = Sweep(
            base={"workload": "bt.4", "seed": 7},
            cells=[
                first,
                {"workload": "lu.8", "max_wall_seconds": 1e-9},
                {"workload": {"name": "nosuch", "nprocs": 4}},
                {"workload": "bt.4:scale=0.02"},
            ],
        )
        settled = []
        real_settle = sweep_module._CellRunner.settle

        def counting_settle(runner, index, outcome):
            settled.append(index)
            return real_settle(runner, index, outcome)

        monkeypatch.setattr(sweep_module._CellRunner, "settle", counting_settle)
        outcomes = sweep.run_all(jobs=None if route == "sequential" else 2)
        assert sorted(settled) == [0, 1, 2, 3]
        assert [o.error_type for o in outcomes[1:3]] == ["TimeLimitExceeded", "KeyError"]
        if route == "quarantine":
            assert outcomes[0].error_type == "WorkerCrash"
        else:
            assert isinstance(outcomes[0], ScenarioResult)
        clean = Sweep(cells=[sweep.expand()[3]]).run_all()[0]
        assert cell_record(outcomes[3]) == cell_record(clean)
