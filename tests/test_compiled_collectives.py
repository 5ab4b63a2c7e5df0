"""Equivalence matrix for compiled collective operations.

A program that runs collectives (``yield from comm.X(...)``, nonblocking
composites included) must simulate **bit-identically** whether it runs under
the generator protocol or the op-array fast lane (the compiler's replay of
the same flattened generator), on every engine drain, under every
flow-control policy, with and without fault injection.

``tests/test_workloads_compile.py`` pins the lane *encoding*; this module
pins the *outputs*.  Fault-free, the collective coverage workload is a
registry cell of the reference matrix (``test_reference_engine.py``), and
random collective/point-to-point interleavings are checked against the
reference engine here.  Under the chaos fault preset, which the reference
does not model, the {generator, compiled} x {scalar, auto, auto over two
partitions} x policy matrix is checked against one generator-protocol
scalar run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cells import POLICIES, check, fingerprint, simulate
from repro.workloads.base import Workload
from repro.workloads.compile import compile_info, compile_rank_lanes
from repro.workloads.registry import create_workload

#: (engine, engine_jobs): both drains in-process, and auto over two partitions.
ENGINES = {"scalar": ("scalar", 1), "auto": ("auto", 1), "partitioned": ("auto", 2)}

#: The deterministic network, so a partitioned run engages where it can.
NETWORK = "noiseless"
SEED = 31


def run_mix(policy, engine, compiled, engine_jobs=1):
    workload = create_workload("collective-mix", nprocs=4, iterations=3)
    return simulate(
        workload, policy, seed=SEED, network=NETWORK, faults="chaos",
        compiled=compiled, engine=engine, engine_jobs=engine_jobs,
    )


#: Generator-protocol scalar baselines, computed once per policy.
_baselines: dict = {}


def baseline(policy):
    if policy not in _baselines:
        _baselines[policy] = fingerprint(run_mix(policy, "scalar", compiled=False))
    return _baselines[policy]


class TestCollectiveEquivalenceMatrix:
    """{generator, compiled} x engines x policies under chaos, one fingerprint."""

    @pytest.mark.parametrize("run", ENGINES)
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("compiled", [False, True], ids=["generator", "compiled"])
    def test_bit_identical_outputs(self, compiled, policy, run):
        engine, engine_jobs = ENGINES[run]
        result = run_mix(policy, engine, compiled, engine_jobs=engine_jobs)
        assert fingerprint(result) == baseline(policy)

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


class TestRandomInterleavings:
    @settings(max_examples=12, deadline=None)
    @given(steps=_steps, nprocs=st.sampled_from([2, 4]))
    def test_compiled_and_generator_match_reference(self, steps, nprocs):
        workload = _InterleavedWorkload(nprocs=nprocs, steps=steps)
        check(workload, "standard", NETWORK, [(True, "auto", 1), (False, "scalar", 1)], SEED)

    @settings(max_examples=6, deadline=None)
    @given(steps=_steps)
    def test_interleavings_stay_on_the_fast_lane(self, steps):
        workload = _InterleavedWorkload(nprocs=4, steps=steps)
        for rank in range(4):
            assert compile_rank_lanes(workload, rank) is not None
