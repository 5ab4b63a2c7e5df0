"""The engine knobs: cohorting (``auto``/``scalar``) and ``engine_jobs``.

Whether the run loop batches timestamp cohorts, and over how many worker
processes it partitions the ranks, is an implementation detail.  Fault-free
runs of every registry cell, policy and run mode are checked against the
reference engine in ``test_reference_engine.py``.  This module holds what
that matrix does not: runs with fault injection (outside the reference's
model), compared pairwise — ``engine="auto"`` against ``engine="scalar"``,
partitioned against in-process — on the same fingerprint; that each knob
engages where it should; cohorts as wide as 64 ranks; and the knob's
spelling in specs and sweeps.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cells import (
    CELL_IDS,
    POLICIES,
    REGISTRY_CELLS,
    assert_partitioned,
    fingerprint,
    run_cell,
    simulate,
)
from repro.scenario import ScenarioSpec, Sweep
from repro.sim.engine import Simulator
from repro.workloads.registry import create_workload

#: The first registry cell (bt.9), the one the knob checks run.
BT = REGISTRY_CELLS[0]


class TestRegistryEquivalence:
    """Full registry x every policy under the chaos fault preset, scalar vs auto."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("cell", REGISTRY_CELLS, ids=CELL_IDS)
    def test_bit_identical_outputs(self, cell, policy):
        scalar = run_cell(cell, policy, faults="chaos", engine="scalar")
        auto = run_cell(cell, policy, faults="chaos", engine="auto")
        assert fingerprint(auto) == fingerprint(scalar)


class TestCohortPathEngages:
    """``engine="auto"`` batches compiled ranks; ``"scalar"`` and generator ranks never do."""

    def _count_batches(self, monkeypatch):
        # _exec_cohort is the cohort dispatch entry (never reached with
        # cohorting off); the queue-level batch pushes are inlined in the
        # engine, so count at this seam instead.
        calls = {"step": 0}
        original = Simulator._exec_cohort

        def counting(self, states):
            calls["step"] += 1
            return original(self, states)

        monkeypatch.setattr(Simulator, "_exec_cohort", counting)
        return calls

    def test_auto_batches_cohorts(self, monkeypatch):
        from repro.analysis.scaling import lockstep_scale_configs

        calls = self._count_batches(monkeypatch)
        machine, network = lockstep_scale_configs()
        workload = create_workload("bt", 16, iterations=2, compute_noise=0.0)
        batches = []
        for program in (workload.program_for, workload.program):
            result = Simulator(
                workload.nprocs,
                seed=5,
                machine=machine,
                network=network,
                tracer=False,
                engine="auto",
            ).run([program])
            assert result.events_processed > 0
            batches.append(calls["step"])
        assert batches[0] > 0, "engine='auto' never batched a step cohort"
        # Cohorts hold compiled-rank steps only, so generator ranks run one
        # way under either drain (the reference matrix runs them once).
        assert batches[1] == batches[0]

    def test_auto_cohorts_a_four_rank_job(self):
        # No job-size threshold: a 4-rank lockstep cohort is batched, and
        # the run equals the scalar one.
        from repro.analysis.scaling import lockstep_scale_configs

        def run(engine):
            machine, network = lockstep_scale_configs()
            workload = create_workload("bt", 4, iterations=2, compute_noise=0.0)
            simulator = Simulator(
                workload.nprocs,
                seed=5,
                machine=machine,
                network=network,
                engine=engine,
            )
            return simulator, simulator.run([workload.program_for])

        auto_sim, auto = run("auto")
        scalar_sim, scalar = run("scalar")
        assert auto_sim.vector_cohorts > 0
        assert scalar_sim.vector_cohorts == 0
        assert fingerprint(auto) == fingerprint(scalar)

    def test_scalar_drain_over_two_partitions(self):
        # engine_jobs alone partitions; each worker drains under "scalar".
        from repro.analysis.scaling import partitioned_scale_configs

        def run(engine_jobs):
            machine, network = partitioned_scale_configs()
            workload = create_workload("bt", 16, iterations=1, compute_noise=0.0)
            simulator = Simulator(
                workload.nprocs,
                seed=5,
                machine=machine,
                network=network,
                engine="scalar",
                engine_jobs=engine_jobs,
            )
            return simulator, simulator.run([workload.program_for])

        partitioned_sim, partitioned = run(2)
        in_process_sim, in_process = run(1)
        info = partitioned.parallel_info
        assert info == {
            "partitions": 2,
            "windows": info["windows"],
            "lookahead": info["lookahead"],
            "engine_jobs": 2,
        }
        assert info["windows"] > 0
        assert in_process.parallel_info is None
        assert partitioned_sim.vector_cohorts == in_process_sim.vector_cohorts == 0
        assert fingerprint(partitioned) == fingerprint(in_process)

    def test_scalar_never_batches(self, monkeypatch):
        calls = self._count_batches(monkeypatch)
        workload = create_workload("bt", 9, scale=0.03)
        Simulator(workload.nprocs, seed=5, tracer=False, engine="scalar").run(
            [workload.program_for]
        )
        assert calls["step"] == 0


class TestWideCohorts:
    """64-rank lockstep cells: segments and delivery runs as wide as the job.

    The registry cells top out at 9 ranks; these pin the burst
    send pass, the batch-record flush and the cohort delivery pass at the
    widths the scaling benchmarks drive.
    """

    def _run(self, engine, configs, policy="standard", tracer=False, engine_jobs=1):
        machine, network = configs()
        workload = create_workload("bt", 64, iterations=1, compute_noise=0.0)
        return simulate(
            workload, policy, seed=5, machine=machine, network=network,
            tracer=tracer, engine=engine, engine_jobs=engine_jobs,
        )

    def test_scalar_auto_partitioned_agree(self):
        # Zero latency leaves a partitioned run no lookahead, so it runs
        # in-process; the positive-latency cell below partitions for real.
        from repro.analysis.scaling import lockstep_scale_configs

        scalar = self._run("scalar", lockstep_scale_configs)
        auto = self._run("auto", lockstep_scale_configs)
        partitioned = self._run("auto", lockstep_scale_configs, engine_jobs=2)
        assert "fallback" in partitioned.parallel_info
        assert fingerprint(auto) == fingerprint(scalar)
        assert fingerprint(partitioned) == fingerprint(scalar)

    def test_partitioned_wide_cohorts_agree(self):
        from repro.analysis.scaling import partitioned_scale_configs

        scalar = self._run("scalar", partitioned_scale_configs)
        auto = self._run("auto", partitioned_scale_configs)
        partitioned = self._run("auto", partitioned_scale_configs, engine_jobs=2)
        assert partitioned.parallel_info["partitions"] == 2
        assert fingerprint(auto) == fingerprint(scalar)
        assert fingerprint(partitioned) == fingerprint(scalar)

    def test_policy_and_tracer_hooks_see_wide_delivery_runs(self):
        # With a tracer and a delivery-observing policy attached, one
        # delivery run spans many destinations and is split per receiver.
        from repro.analysis.scaling import lockstep_scale_configs

        runs = [
            self._run(engine, lockstep_scale_configs, "predictive-credits", True, jobs)
            for engine, jobs in (("scalar", 1), ("auto", 1), ("auto", 2))
        ]
        assert fingerprint(runs[1]) == fingerprint(runs[0])
        assert fingerprint(runs[2]) == fingerprint(runs[0])


class TestParallelEquivalence:
    """Full registry x {2, 3} partitions under chaos, partitioned vs in-process.

    The deterministic network is the partitioned run's eligibility gate (it
    derives its lookahead from the minimum link latency).  Fault injection
    keeps a run eligible: drops, retransmissions and degraded links are
    drawn inside the partitions, so every cell whose ranks compile runs
    partitioned with faults (random-sender's generator ranks fall back).
    """

    @pytest.mark.parametrize("cell", REGISTRY_CELLS, ids=CELL_IDS)
    def test_bit_identical_outputs(self, cell):
        name, nprocs, params = cell
        workload = create_workload(name, nprocs=nprocs, **params)
        options = dict(network="noiseless", faults="chaos")
        baseline = fingerprint(simulate(workload, **options))
        for jobs in (2, 3):
            result = simulate(workload, engine_jobs=jobs, **options)
            assert_partitioned(workload, result)
            assert fingerprint(result) == baseline

    def test_engaged_run_reports_partition_info(self):
        result = run_cell(BT, network="noiseless", engine_jobs=3)
        info = result.parallel_info
        assert info is not None and "fallback" not in info
        assert info["partitions"] == 3
        assert info["windows"] > 0
        assert info["lookahead"] == pytest.approx(25e-6)
        assert info["engine_jobs"] == 3

    def test_default_network_falls_back_with_reason(self):
        # Jitter makes arrival computation order-sensitive across partitions,
        # so the default network is ineligible — the run must complete
        # in-process (bit-identically) and say why.
        partitioned = run_cell(BT, engine_jobs=2)
        assert partitioned.parallel_info is not None
        assert "fallback" in partitioned.parallel_info
        assert fingerprint(partitioned) == fingerprint(run_cell(BT))

    def test_partition_unsafe_policy_falls_back(self):
        result = run_cell(BT, "predictive-credits", network="noiseless", engine_jobs=2)
        assert "fallback" in result.parallel_info

    def test_single_job_runs_in_process(self):
        # engine_jobs=1 asks for no partitions, so there is nothing to report.
        assert run_cell(BT, network="noiseless", engine_jobs=1).parallel_info is None


class TestEngineJobsAuto:
    """engine_jobs=0 auto-tunes to the machine's CPU count."""

    def test_zero_resolves_to_cpu_count(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        result = run_cell(BT, network="noiseless", engine_jobs=0)
        info = result.parallel_info
        assert "fallback" not in info
        assert info["engine_jobs"] == 3
        assert info["partitions"] == 3

    def test_resolved_value_lands_in_fallback_info_too(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        # One CPU resolves to one worker: ineligible, and the info says so
        # with the *resolved* count, not the 0 sentinel.
        result = run_cell(BT, network="noiseless", engine_jobs=0)
        info = result.parallel_info
        assert "fallback" in info
        assert info["engine_jobs"] == 1

    def test_negative_engine_jobs_rejected(self):
        with pytest.raises(ValueError, match="engine_jobs"):
            Simulator(nprocs=2, engine_jobs=-1)
        with pytest.raises(ValueError, match="engine_jobs"):
            ScenarioSpec(workload="bt.4", engine_jobs=-1)


class TestRetiredEngineNames:
    """The drains are ``auto`` and ``scalar``; partitioning is ``engine_jobs``."""

    REFUSAL = "engine must be 'auto' or 'scalar', got {!r}"

    @pytest.mark.parametrize("engine", ["vectorised", "parallel"])
    def test_spec_refuses(self, engine):
        with pytest.raises(ValueError) as raised:
            ScenarioSpec(workload="bt.4", engine=engine)
        assert str(raised.value) == self.REFUSAL.format(engine)

    def test_simulator_refuses(self):
        with pytest.raises(ValueError) as raised:
            Simulator(nprocs=2, engine="parallel")
        assert str(raised.value) == self.REFUSAL.format("parallel")

    def test_sweep_toml_refuses(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text('[base]\nworkload = "bt.4"\nengine = "vectorised"\n')
        with pytest.raises(ValueError) as raised:
            Sweep.from_toml(path).expand()
        assert str(raised.value) == self.REFUSAL.format("vectorised")

    def test_auto_resolution_is_bit_identical(self, monkeypatch):
        import os

        baseline = fingerprint(run_cell(BT, network="noiseless"))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        auto = run_cell(BT, network="noiseless", engine_jobs=0)
        assert fingerprint(auto) == baseline

    def test_sweep_pool_caps_for_auto_jobs(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        sweep = Sweep(
            base={
                "workload": "bt.4:scale=0.03",
                "seed": 17,
                "network": "noiseless",
            },
            cells=[{}, {"seed": 18}],
        )
        with pytest.warns(RuntimeWarning, match="oversubscribe"):
            outcomes = sweep.run_all(jobs=2, engine_jobs=0)
        assert len(outcomes) == 2
        assert all(not isinstance(o, Exception) for o in outcomes)


class TestParallelPartitionProperty:
    """Any contiguous cut of the rank space yields bit-identical outputs."""

    @settings(max_examples=6, deadline=None)
    @given(cuts=st.sets(st.integers(min_value=1, max_value=8), max_size=3))
    def test_random_partition_boundaries(self, cuts):
        from repro.sim import partition
        from repro.sim.network import NetworkConfig, NetworkModel

        nprocs = 9
        bounds = [0, *sorted(cuts), nprocs]
        blocks = [
            list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:]) if hi > lo
        ]
        if len(blocks) < 2:
            blocks = [list(range(0, 4)), list(range(4, nprocs))]

        def run(engine_jobs):
            workload = create_workload("bt", nprocs=nprocs, scale=0.03)
            network = NetworkModel(
                NetworkConfig(latency=25e-6, jitter_sigma=0.0, contention=False),
                nprocs,
            )
            sim = Simulator(
                nprocs=nprocs,
                network=network,
                tracer=True,
                seed=23,
                engine_jobs=engine_jobs,
            )
            return sim.run([workload.program_for])

        # Forked partition workers inherit the patched module attribute.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(partition, "contiguous_blocks", lambda n, jobs: blocks)
            partitioned = run(len(blocks))
        assert partitioned.parallel_info == {
            "partitions": len(blocks),
            "windows": partitioned.parallel_info["windows"],
            "lookahead": 25e-6,
            "engine_jobs": len(blocks),
        }
        assert fingerprint(partitioned) == fingerprint(run(1))


class TestShardedSweepEquivalence:
    """run_all(jobs=2) with an engine override is bit-identical to sequential."""

    def _sweep(self):
        return Sweep(
            base={"workload": "bt.4:scale=0.03", "seed": 17},
            grid={"network.overrides.jitter_sigma": [0.0, 0.2]},
            cells=[{"workload": "cg.4:scale=0.1"}],
        )

    def test_engine_override_and_sharding(self):
        sequential = self._sweep().run_all(engine="scalar")
        sharded = self._sweep().run_all(jobs=2, engine="auto")
        assert [cell.label for cell in sequential] == [cell.label for cell in sharded]
        for seq_cell, par_cell in zip(sequential, sharded):
            assert fingerprint(par_cell.result) == fingerprint(seq_cell.result)

    def test_engine_override_reaches_every_spec(self):
        sweep = self._sweep()
        specs = [spec.with_overrides(engine="scalar") for spec in sweep.expand()]
        assert all(spec.engine == "scalar" for spec in specs)
        # The engine knob cannot change results, so it is deliberately
        # excluded from the spec identity (sweep summaries are byte-identical
        # across engines).
        for spec in specs:
            assert "engine" not in spec.to_dict()
            assert spec.content_hash() == spec.with_overrides(engine="auto").content_hash()
