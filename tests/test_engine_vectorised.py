"""Equivalence of the run loop with cohorting on (auto) and off (scalar).

The contract of the engine knob: whether the run loop batches timestamp
cohorts is an implementation detail.  For every registry workload, under every flow-control
policy, with and without fault injection, an ``engine="auto"`` run must
be **bit-identical** to an ``engine="scalar"`` run — same makespan, same
per-rank finish times, same processed-event count, same runtime statistics,
same fault counters, and the same trace records at both levels — and sweeps
sharded over worker processes must behave identically under an engine
override.  The same holds for ranks partitioned over ``engine_jobs`` worker
processes, under either drain.
"""

from pathlib import Path

import pytest

from repro.scenario import Scenario, ScenarioSpec, Sweep
from repro.sim.engine import Simulator
from repro.workloads.registry import create_workload, workload_names

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    HAVE_HYPOTHESIS = False

#: The committed sample trace (also the CLI quickstart's replay input).
SAMPLE_TRACE = str(Path(__file__).resolve().parent.parent / "examples" / "sample_trace.jsonl")

#: (workload, nprocs, extra kwargs) — the full registry at smoke scales.
REGISTRY_CELLS = [
    ("bt", 9, {"scale": 0.03}),
    ("cg", 8, {"scale": 0.1}),
    ("lu", 4, {"scale": 0.01}),
    ("is", 8, {"scale": 0.2}),
    ("sweep3d", 6, {"scale": 0.1}),
    ("periodic-pattern", 4, {"scale": 0.2}),
    ("ring-exchange", 4, {"scale": 0.2}),
    ("random-sender", 4, {"messages_per_rank": 10}),
    ("collective-storm", 4, {"scale": 0.2}),
    ("collective-mix", 4, {"scale": 0.2}),
    ("replay", 4, {"file": SAMPLE_TRACE}),
]

#: Policy shorthands (the spec layer builds a fresh instance per run).
POLICIES = ["standard", "predictive-buffers", "predictive-credits", "predictive-rendezvous"]

FAULT_PRESETS = [None, "chaos"]


def fingerprint(result):
    """Everything a simulation exposes to the analysis layer, comparable."""
    traces = []
    if result.tracer is not None:
        for rank in range(result.nprocs):
            trace = result.trace_for(rank)
            traces.append((list(trace.logical), list(trace.physical)))
    return (
        result.makespan,
        result.rank_finish_times,
        result.events_processed,
        result.stats.summary(),
        result.fault_stats,
        traces,
    )


def run_cell(
    name, nprocs, kwargs, policy, faults, engine, seed=23, network=None, engine_jobs=1
):
    spec = ScenarioSpec(
        workload={"name": name, "nprocs": nprocs, **kwargs},
        seed=seed,
        network=network,
        policy=policy,
        faults=faults,
        engine=engine,
        engine_jobs=engine_jobs,
    )
    return Scenario(spec).run().result


class TestRegistryEquivalence:
    """Full registry x all four policies x fault presets, scalar vs auto."""

    @pytest.mark.parametrize("faults", FAULT_PRESETS)
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("name,nprocs,kwargs", REGISTRY_CELLS)
    def test_bit_identical_outputs(self, name, nprocs, kwargs, policy, faults):
        scalar = run_cell(name, nprocs, kwargs, policy, faults, engine="scalar")
        auto = run_cell(name, nprocs, kwargs, policy, faults, engine="auto")
        assert fingerprint(auto) == fingerprint(scalar)

    def test_registry_cells_cover_the_registry(self):
        assert sorted(name for name, _, _ in REGISTRY_CELLS) == workload_names()


class TestCohortPathEngages:
    """``engine="auto"`` reaches the batch dispatch; ``"scalar"`` never does."""

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
        result = Simulator(
            workload.nprocs,
            seed=5,
            machine=machine,
            network=network,
            tracer=False,
            engine="auto",
        ).run([workload.program_for])
        assert result.events_processed > 0
        assert calls["step"] > 0, "engine='auto' never batched a step cohort"

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

    Every other cell in this file tops out at 9 ranks; these pin the burst
    send pass, the batch-record flush and the cohort delivery pass at the
    widths the scaling benchmarks drive.
    """

    def _run(self, engine, configs, policy="standard", tracer=False, engine_jobs=1):
        from repro.predictive.registry import create_policy

        machine, network = configs()
        workload = create_workload("bt", 64, iterations=1, compute_noise=0.0)
        return Simulator(
            workload.nprocs,
            seed=5,
            machine=machine,
            network=network,
            policy=create_policy(policy),
            tracer=tracer,
            engine=engine,
            engine_jobs=engine_jobs,
        ).run([workload.program_for])

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


#: Deterministic positive-latency network: the partitioned run's eligibility
#: gate (it derives its lookahead from the minimum link latency).  The
#: default jittered/contended network must *fall back* instead.
PARALLEL_NETWORK = "noiseless:latency=25e-6"

#: In-process baselines for the partition matrix, computed once per cell.
_parallel_baselines: dict = {}


def _baseline(name, nprocs, kwargs, faults):
    key = (name, nprocs, tuple(sorted(kwargs.items())), faults)
    if key not in _parallel_baselines:
        _parallel_baselines[key] = fingerprint(
            run_cell(
                name, nprocs, kwargs, "standard", faults,
                engine="auto", network=PARALLEL_NETWORK,
            )
        )
    return _parallel_baselines[key]


#: Noise-free cells that stay in step on the deterministic network, so that
#: isend segments really are posted as bursts (under the default compute
#: noise the ranks drift apart and cohorts collapse to single steps).
IN_STEP_CELLS = [
    ("bt", 16, {"iterations": 1, "compute_noise": 0.0}),
    ("cg", 16, {"scale": 0.1, "compute_noise": 0.0}),
    ("lu", 16, {"scale": 0.01, "compute_noise": 0.0}),
    ("is", 8, {"scale": 0.2, "compute_noise": 0.0}),
    ("is", 16, {"scale": 0.2, "compute_noise": 0.0}),
    ("sweep3d", 16, {"scale": 0.1, "compute_noise": 0.0}),
    ("ring-exchange", 8, {"scale": 0.2}),
    ("collective-mix", 8, {"scale": 0.2}),
    ("collective-storm", 8, {"scale": 0.2}),
]


class TestDeterministicNetworkEquivalence:
    """Scalar vs auto where ``Transport.post_send_burst`` runs its own pass.

    The default jittered network makes the burst path fall back to one
    ``post_send_values`` call per message, and the partition matrix below
    compares two runs that both take the burst path.  These cells hold the
    pass — inline arrivals, deferred delivery batches, the flush before a
    rendezvous control message — to the per-message reference; IS at 16 ranks
    mixes coinciding and differing arrivals with rendezvous sends in one
    burst.
    """

    @pytest.mark.parametrize("name,nprocs,kwargs", IN_STEP_CELLS)
    def test_bit_identical_outputs(self, name, nprocs, kwargs):
        scalar, auto = (
            run_cell(
                name, nprocs, kwargs, "standard", None,
                engine=engine, network=PARALLEL_NETWORK,
            )
            for engine in ("scalar", "auto")
        )
        assert fingerprint(auto) == fingerprint(scalar)


class TestParallelEquivalence:
    """Full registry x fault presets x {2, 3} partitions, partitioned vs in-process."""

    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize("faults", FAULT_PRESETS)
    @pytest.mark.parametrize("name,nprocs,kwargs", REGISTRY_CELLS)
    def test_bit_identical_outputs(self, name, nprocs, kwargs, faults, jobs):
        partitioned = run_cell(
            name, nprocs, kwargs, "standard", faults,
            engine="auto", network=PARALLEL_NETWORK, engine_jobs=jobs,
        )
        assert fingerprint(partitioned) == _baseline(name, nprocs, kwargs, faults)

    def test_engaged_run_reports_partition_info(self):
        result = run_cell(
            "bt", 9, {"scale": 0.03}, "standard", None,
            engine="auto", network=PARALLEL_NETWORK, engine_jobs=3,
        )
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
        partitioned = run_cell(
            "bt", 9, {"scale": 0.03}, "standard", None, engine="auto", engine_jobs=2
        )
        assert partitioned.parallel_info is not None
        assert "fallback" in partitioned.parallel_info
        baseline = run_cell("bt", 9, {"scale": 0.03}, "standard", None, engine="auto")
        assert fingerprint(partitioned) == fingerprint(baseline)

    def test_partition_unsafe_policy_falls_back(self):
        result = run_cell(
            "bt", 9, {"scale": 0.03}, "predictive-credits", None,
            engine="auto", network=PARALLEL_NETWORK, engine_jobs=2,
        )
        assert "fallback" in result.parallel_info

    def test_single_job_runs_in_process(self):
        # engine_jobs=1 asks for no partitions, so there is nothing to report.
        result = run_cell(
            "bt", 9, {"scale": 0.03}, "standard", None,
            engine="auto", network=PARALLEL_NETWORK, engine_jobs=1,
        )
        assert result.parallel_info is None


class TestEngineJobsAuto:
    """engine_jobs=0 auto-tunes to the machine's CPU count."""

    def test_zero_resolves_to_cpu_count(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        result = run_cell(
            "bt", 9, {"scale": 0.03}, "standard", None,
            engine="auto", network=PARALLEL_NETWORK, engine_jobs=0,
        )
        info = result.parallel_info
        assert "fallback" not in info
        assert info["engine_jobs"] == 3
        assert info["partitions"] == 3

    def test_resolved_value_lands_in_fallback_info_too(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        # One CPU resolves to one worker: ineligible, and the info says so
        # with the *resolved* count, not the 0 sentinel.
        result = run_cell(
            "bt", 9, {"scale": 0.03}, "standard", None,
            engine="auto", network=PARALLEL_NETWORK, engine_jobs=0,
        )
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

        baseline = _baseline("bt", 9, {"scale": 0.03}, None)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        auto = run_cell(
            "bt", 9, {"scale": 0.03}, "standard", None,
            engine="auto", network=PARALLEL_NETWORK, engine_jobs=0,
        )
        assert fingerprint(auto) == baseline

    def test_sweep_pool_caps_for_auto_jobs(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        sweep = Sweep(
            base={
                "workload": "bt.4:scale=0.03",
                "seed": 17,
                "network": PARALLEL_NETWORK,
            },
            cells=[{}, {"seed": 18}],
        )
        with pytest.warns(RuntimeWarning, match="oversubscribe"):
            outcomes = sweep.run_all(jobs=2, engine_jobs=0)
        assert len(outcomes) == 2
        assert all(not isinstance(o, Exception) for o in outcomes)


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
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


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestEquivalenceProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        cell=st.sampled_from([("bt", 4, {"scale": 0.02}), ("ring-exchange", 4, {"scale": 0.2})]),
        policy=st.sampled_from(POLICIES),
    )
    def test_any_seed_any_policy(self, seed, cell, policy):
        name, nprocs, kwargs = cell
        scalar = run_cell(name, nprocs, kwargs, policy, None, engine="scalar", seed=seed)
        auto = run_cell(name, nprocs, kwargs, policy, None, engine="auto", seed=seed)
        assert fingerprint(auto) == fingerprint(scalar)
