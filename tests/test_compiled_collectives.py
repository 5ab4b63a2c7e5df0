"""Equivalence matrix for compiled collective operations.

A program that runs collectives (``yield from comm.X(...)``, nonblocking
composites included) must simulate **bit-identically** whether it runs under
the generator protocol or the op-array fast lane (the compiler's replay of
the same flattened generator), on every engine drain, under every
flow-control policy, with and without fault injection.

``tests/test_workloads_compile.py`` pins the lane *encoding*; this module
pins the *outputs*: the full {generator, compiled} x {scalar, auto,
auto over two partitions} x policy x fault matrix over the collective coverage workload,
plus a hypothesis property over random collective/point-to-point
interleavings.
"""

import pytest

from repro.predictive.registry import create_policy
from repro.sim.engine import Simulator
from repro.sim.registry import create_faults, create_network
from repro.workloads.base import Workload
from repro.workloads.compile import compile_info, compile_rank_lanes
from repro.workloads.registry import create_workload

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    HAVE_HYPOTHESIS = False

#: Deterministic positive-latency network so a partitioned run engages.
NETWORK = create_network("noiseless", latency=25e-6)

POLICIES = ["standard", "predictive-buffers", "predictive-credits", "predictive-rendezvous"]

FAULT_PRESETS = [None, "chaos"]

#: (engine, engine_jobs): both drains in-process, and auto over two partitions.
ENGINES = {"scalar": ("scalar", 1), "auto": ("auto", 1), "partitioned": ("auto", 2)}


def fingerprint(result):
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


def run_mix(policy, faults, engine, compiled, workload=None, engine_jobs=1):
    workload = workload or create_workload("collective-mix", nprocs=4, iterations=3)
    simulator = Simulator(
        nprocs=workload.nprocs,
        seed=31,
        policy=create_policy(policy),
        faults=create_faults(faults or "none"),
        network=NETWORK,
        engine=engine,
        engine_jobs=engine_jobs,
    )
    return simulator.run([workload.program_for if compiled else workload.program])


#: Generator-protocol scalar baselines, computed once per (policy, faults).
_baselines: dict = {}


def baseline(policy, faults):
    key = (policy, faults)
    if key not in _baselines:
        _baselines[key] = fingerprint(run_mix(policy, faults, "scalar", compiled=False))
    return _baselines[key]


class TestCollectiveEquivalenceMatrix:
    """{generator, compiled} x engines x policies x faults, one fingerprint."""

    @pytest.mark.parametrize("run", ENGINES)
    @pytest.mark.parametrize("faults", FAULT_PRESETS)
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("compiled", [False, True], ids=["generator", "compiled"])
    def test_bit_identical_outputs(self, compiled, policy, faults, run):
        engine, engine_jobs = ENGINES[run]
        result = run_mix(policy, faults, engine, compiled, engine_jobs=engine_jobs)
        assert fingerprint(result) == baseline(policy, faults)

    def test_collective_mix_actually_compiles(self):
        info = compile_info(create_workload("collective-mix", nprocs=4), 0)
        assert info == {"compiled": True, "ops": info["ops"]}
        assert info["ops"] > 0


# ----------------------------------------------------------------------
# Property: random collective / point-to-point interleavings
# ----------------------------------------------------------------------

#: One step of a random SPMD program.  Every step is symmetric across ranks
#: (same sequence everywhere), so sends and receives always pair up.
_STEP_KINDS = (
    "bcast", "reduce", "allreduce", "gather", "scatter", "allgather",
    "alltoall", "alltoallv", "barrier", "compute", "p2p", "ialltoall",
    "iallgather", "flush",
)


class _InterleavedWorkload(Workload):
    """Executes a random (but fixed) step sequence on every rank."""

    name = "interleaved-test"

    def __init__(self, nprocs, steps, **kwargs):
        self.steps = tuple(steps)
        super().__init__(nprocs, **kwargs)

    def default_iterations(self):
        return 1

    def parameters(self):
        return {"steps": self.steps}

    def program(self, ctx):
        comm = ctx.comm
        right = (ctx.rank + 1) % self.nprocs
        left = (ctx.rank - 1) % self.nprocs
        varied = [64 * (1 + (d % 3)) for d in range(self.nprocs)]
        pending = []
        for kind, nbytes in self.steps:
            if kind == "bcast":
                yield from comm.bcast(nbytes, root=0)
            elif kind == "reduce":
                yield from comm.reduce(nbytes, root=0)
            elif kind == "allreduce":
                yield from comm.allreduce(nbytes)
            elif kind == "gather":
                yield from comm.gather(nbytes, root=0)
            elif kind == "scatter":
                yield from comm.scatter(nbytes, root=0)
            elif kind == "allgather":
                yield from comm.allgather(nbytes)
            elif kind == "alltoall":
                yield from comm.alltoall(nbytes)
            elif kind == "alltoallv":
                yield from comm.alltoallv(varied)
            elif kind == "barrier":
                yield from comm.barrier()
            elif kind == "compute":
                yield self.compute(ctx, 0.5)
            elif kind == "p2p":
                pending.append((yield comm.irecv(left, tag=11)))
                pending.append((yield comm.isend(right, nbytes, tag=11)))
            elif kind == "ialltoall":
                pending.append((yield from comm.ialltoall(nbytes)))
            elif kind == "iallgather":
                pending.append((yield from comm.iallgather(nbytes)))
            elif kind == "flush" and pending:
                yield comm.waitall(pending)
                pending = []
        if pending:
            yield comm.waitall(pending)


_steps = st.lists(
    st.tuples(st.sampled_from(_STEP_KINDS), st.sampled_from([64, 512, 4096])),
    min_size=1,
    max_size=12,
)


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestRandomInterleavings:
    @settings(max_examples=12, deadline=None)
    @given(steps=_steps, nprocs=st.sampled_from([2, 4]))
    def test_compiled_matches_generator(self, steps, nprocs):
        compiled_run = run_mix(
            "standard", None, "auto", compiled=True,
            workload=_InterleavedWorkload(nprocs=nprocs, steps=steps),
        )
        generator_run = run_mix(
            "standard", None, "scalar", compiled=False,
            workload=_InterleavedWorkload(nprocs=nprocs, steps=steps),
        )
        assert fingerprint(compiled_run) == fingerprint(generator_run)

    @settings(max_examples=6, deadline=None)
    @given(steps=_steps)
    def test_interleavings_stay_on_the_fast_lane(self, steps):
        workload = _InterleavedWorkload(nprocs=4, steps=steps)
        for rank in range(4):
            assert compile_rank_lanes(workload, rank) is not None
