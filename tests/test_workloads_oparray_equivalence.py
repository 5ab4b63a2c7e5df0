"""Equivalence of the op-array fast lane and the generator protocol.

The contract of the compiled workload feed: which protocol a rank runs under
is an implementation detail.  For every registry workload, under every
flow-control policy, a compiled run must be **bit-identical** to a generator
run — same makespan, same per-rank finish times, same processed-event count,
same runtime statistics, and the same trace records at both levels — and
mixed compiled/dynamic registries must still merge deterministically under
the sharded experiment runner.
"""

from pathlib import Path

import pytest

from repro.analysis.experiments import ExperimentContext
from repro.mpi.constants import ANY_SOURCE
from repro.predictive import (
    PredictiveBufferPolicy,
    PredictiveCreditPolicy,
    PredictiveRendezvousPolicy,
)
from repro.runtime.protocol import StandardFlowControl
from repro.sim.engine import Simulator
from repro.workloads.base import Workload
from repro.workloads.compile import clear_schedule_cache
from repro.workloads.registry import create_workload, workload_names

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

#: The four flow-control policies (fresh instance per run — they are stateful).
POLICY_FACTORIES = {
    "standard": StandardFlowControl,
    "buffer": PredictiveBufferPolicy,
    "credit": PredictiveCreditPolicy,
    "bypass": PredictiveRendezvousPolicy,
}


def fingerprint(result):
    """Everything a simulation exposes to the analysis layer, comparable."""
    traces = []
    for rank in range(result.nprocs):
        trace = result.trace_for(rank)
        traces.append((list(trace.logical), list(trace.physical)))
    return (
        result.makespan,
        result.rank_finish_times,
        result.events_processed,
        result.stats.summary(),
        traces,
    )


def simulate(workload, seed, compiled, policy=None):
    factory = workload.program_for if compiled else workload.program
    return Simulator(workload.nprocs, seed=seed, policy=policy).run([factory])


def run_cell(name, nprocs, kwargs, policy_name, compiled, seed=23):
    workload = create_workload(name, nprocs=nprocs, **kwargs)
    policy = POLICY_FACTORIES[policy_name]()
    return simulate(workload, seed, compiled, policy)


class TestRegistryEquivalence:
    """Full registry x all four policies, compiled vs generator."""

    @pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
    @pytest.mark.parametrize("name,nprocs,kwargs", REGISTRY_CELLS)
    def test_bit_identical_outputs(self, name, nprocs, kwargs, policy_name):
        generator_run = run_cell(name, nprocs, kwargs, policy_name, compiled=False)
        compiled_run = run_cell(name, nprocs, kwargs, policy_name, compiled=True)
        assert fingerprint(compiled_run) == fingerprint(generator_run)

    def test_registry_cells_cover_the_registry(self):
        assert sorted(name for name, _, _ in REGISTRY_CELLS) == workload_names()

    def test_cold_and_warm_schedule_cache_agree(self):
        clear_schedule_cache()
        cold = run_cell("bt", 9, {"scale": 0.03}, "standard", compiled=True)
        warm = run_cell("bt", 9, {"scale": 0.03}, "standard", compiled=True)
        assert fingerprint(cold) == fingerprint(warm)


class MixedModeWorkload(Workload):
    """Rank 0 compiles (static receiver); the senders stay dynamic.

    The senders size their compute phases from ``ctx.rng`` directly, so the
    compile replay rejects them and one simulation ends up driving compiled
    and generator ranks side by side.
    """

    name = "mixed-mode-test"

    def default_iterations(self):
        return 6

    def validate(self):
        if self.nprocs < 2:
            raise ValueError("MixedModeWorkload needs at least 2 ranks")

    def program(self, ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            for _ in range(self.iterations * (self.nprocs - 1)):
                yield comm.recv(source=ANY_SOURCE, tag=7)
        else:
            for _ in range(self.iterations):
                yield comm.compute(1e-6 * (1 + ctx.rng.integers(0, 3)))
                yield comm.send(0, 512, tag=7)


class TestMixedModeSimulation:
    def test_compiled_and_dynamic_ranks_mix_in_one_run(self):
        workload = MixedModeWorkload(nprocs=4)
        from repro.mpi.communicator import Communicator, RankContext
        from repro.util.rng import SeededRNG

        def ctx(rank):
            return RankContext(
                rank=rank,
                size=4,
                comm=Communicator(rank=rank, size=4),
                rng=SeededRNG(1, "rank", rank),
            )

        assert workload.compile_program(ctx(0)) is not None
        assert workload.compile_program(ctx(1)) is None

        generator_run = simulate(MixedModeWorkload(nprocs=4), seed=31, compiled=False)
        mixed_run = simulate(MixedModeWorkload(nprocs=4), seed=31, compiled=True)
        assert fingerprint(mixed_run) == fingerprint(generator_run)

    def test_opted_out_workload_runs_unchanged(self):
        """The reference dynamic workload takes the generator path untouched."""
        generator_run = simulate(
            create_workload("random-sender", nprocs=4, messages_per_rank=8),
            seed=13,
            compiled=False,
        )
        auto_run = simulate(
            create_workload("random-sender", nprocs=4, messages_per_rank=8),
            seed=13,
            compiled=True,
        )
        assert fingerprint(auto_run) == fingerprint(generator_run)


class TestShardedMixedRegistry:
    """Compiled + dynamic cells merging under run_all(jobs=N)."""

    SEED = 29
    SCALE = 0.02

    def _context_with_dynamic_cell(self):
        context = ExperimentContext(seed=self.SEED, scale=self.SCALE)
        # Warm a dynamic (generator-protocol) cell into the cache next to the
        # 19 compiled paper cells.
        context.run_named("random-sender", 4)
        return context

    def test_mixed_registry_merges_deterministically(self):
        sequential = self._context_with_dynamic_cell()
        sharded = self._context_with_dynamic_cell()
        seq_runs = sequential.run_all()
        par_runs = sharded.run_all(jobs=2)
        assert [run.label for run in seq_runs] == [run.label for run in par_runs]
        for seq_run, par_run in zip(seq_runs, par_runs):
            assert fingerprint(seq_run.result) == fingerprint(par_run.result)
        dynamic_seq = sequential.run_named("random-sender", 4)
        dynamic_par = sharded.run_named("random-sender", 4)
        assert fingerprint(dynamic_seq.result) == fingerprint(dynamic_par.result)
