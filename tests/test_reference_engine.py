"""Every engine run mode against the reference engine (``tests/reference_engine.py``).

The reference runs the generator protocol one event at a time with its own
matching, protocol timing, buffer accounting and traces.  The simulator must
agree with it bit for bit — per-rank finish times, makespan, every rank's
canonical logical and physical streams and the integer protocol counters —
in every run mode: compiled ranks under the ``auto`` and the ``scalar``
drain, generator ranks (which never cohort, so either drain runs them the
same way), and partitioned across worker processes wherever a partition can
engage (the deterministic network and a partition-safe policy).  What the
reference leaves out — the event count, the float latency statistics and the
record sequence numbers — is held across the modes: each mode's full
fingerprint equals the first mode's.  The matrix is every registry cell
under every policy on both networks.  Noise-free cells that post in-step
bursts, random seeds, and one run that mixes compiled and generator ranks
are checked the same way.
Fault injection is outside the reference's model; the fault presets are
checked pairwise in ``test_engine_vectorised.py`` and
``test_compiled_collectives.py``.  Two wavefront cells are checked once more
with every blocking send and receive route counted on the reference side,
so each route is known to be taken.
"""

import functools
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cells import (
    CELL_IDS,
    MODES,
    NETWORKS,
    PARTITION_SAFE,
    PARTITIONED,
    POLICIES,
    REGISTRY_CELLS,
    SEED,
    check,
    reference,
)
from repro.mpi.constants import ANY_SOURCE
from repro.mpi.ops import RecvOp, SendOp
from repro.predictive.registry import create_policy
from repro.sim.machine import MachineConfig
from repro.workloads.base import Workload
from repro.workloads.compile import compile_rank_lanes
from repro.workloads.registry import create_workload, workload_names

from reference_engine import ReferenceEngine


def mode_id(mode):
    compiled, engine, jobs = mode
    return (f"compiled-{engine}" if compiled else "generator") + (f"-{jobs}" if jobs > 1 else "")


def matrix():
    """One case per cell, policy, network and run mode, the modes of a cell adjacent."""
    for cell, cell_id in zip(REGISTRY_CELLS, CELL_IDS):
        for policy in POLICIES:
            for network in sorted(NETWORKS):
                partitions = network == "noiseless" and policy in PARTITION_SAFE
                for mode in MODES + PARTITIONED if partitions else MODES:
                    case_id = f"{cell_id}-{policy}-{network}-{mode_id(mode)}"
                    yield pytest.param(cell_id, policy, network, mode, id=case_id)


@functools.lru_cache(maxsize=1)
def matrix_reference(cell_id, policy, network):
    """The cell's workload, the reference's run of it and the first mode's
    fingerprint (filled by :func:`check`), shared by the cell's run modes."""
    name, nprocs, params = REGISTRY_CELLS[CELL_IDS.index(cell_id)]
    workload = create_workload(name, nprocs=nprocs, **params)
    return workload, reference(workload, policy, network), {}


@pytest.mark.parametrize("cell_id,policy,network,mode", list(matrix()))
def test_every_run_mode_matches_reference(cell_id, policy, network, mode):
    workload, expected, first = matrix_reference(cell_id, policy, network)
    counters = check(workload, policy, network, [mode], expected=expected, first=first)
    assert counters["messages_sent"] > 0


def test_cells_cover_the_registry():
    assert sorted(c[0] for c in REGISTRY_CELLS) == workload_names()


def test_partitioned_modes_keep_their_policies():
    # The policies the matrix partitions under; one losing its flag would
    # drop partitioned runs from the matrix without a failure.
    assert PARTITION_SAFE == ["always-rendezvous", "standard"]


#: Noise-free cells that stay in step on the deterministic network, so that
#: isend segments really are posted as bursts (under the default compute
#: noise the ranks drift apart and cohorts collapse to single steps).  They
#: hold ``Transport.post_send_burst``'s own pass — inline arrivals, deferred
#: delivery batches, the flush before a rendezvous control message — to the
#: reference; IS at 16 ranks mixes coinciding and differing arrivals with
#: rendezvous sends in one burst.
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


@pytest.mark.parametrize("name,nprocs,params", IN_STEP_CELLS)
def test_in_step_bursts_match_reference(name, nprocs, params):
    workload = create_workload(name, nprocs=nprocs, **params)
    check(workload, "standard", "noiseless", MODES[:2])


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    cell=st.sampled_from([("bt", 4, {"scale": 0.02}), ("ring-exchange", 4, {"scale": 0.2})]),
    policy=st.sampled_from(POLICIES),
)
def test_any_seed_any_policy(seed, cell, policy):
    name, nprocs, params = cell
    workload = create_workload(name, nprocs=nprocs, **params)
    check(workload, policy, "default", MODES[:2], seed=seed)


class MixedModeWorkload(Workload):
    """Rank 0 compiles (static receiver); the senders stay dynamic.

    The senders size their compute phases from ``ctx.rng`` directly, so the
    compile replay rejects them and one simulation ends up driving compiled
    and generator ranks side by side.
    """

    name = "mixed-mode-test"

    def default_iterations(self):
        return 6

    def program(self, ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            for _ in range(self.iterations * (self.nprocs - 1)):
                yield comm.recv(source=ANY_SOURCE, tag=7)
        else:
            for _ in range(self.iterations):
                yield comm.compute(1e-6 * (1 + ctx.rng.integers(0, 3)))
                yield comm.send(0, 512, tag=7)


def test_compiled_and_generator_ranks_mix_in_one_run():
    workload = MixedModeWorkload(nprocs=4)
    assert compile_rank_lanes(workload, 0) is not None
    assert compile_rank_lanes(workload, 1) is None
    check(workload, "standard", "default", MODES)


def test_refuses_faults():
    with pytest.raises(ValueError, match="no faults"):
        ReferenceEngine(2, create_policy("standard"), faults="chaos")


def test_shares_nothing_with_the_engine_or_transport():
    here = Path(__file__).resolve().parent
    probe = (
        f"import sys; sys.path.insert(0, {str(here)!r}); import reference_engine; "
        "print(' '.join(sorted(sys.modules)))"
    )
    loaded = set(subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(here.parent / "src")},
    ).stdout.split())
    assert "reference_engine" in loaded
    forbidden = {
        "repro.sim.engine", "repro.sim.events", "repro.runtime.transport",
        "repro.runtime.matching", "repro.runtime.buffers", "repro.runtime.stats",
        "repro.trace.tracer",
    }
    assert not loaded & forbidden


# -- every route a blocking send or receive can take -----------------------
#: The four routes of a blocking op, named by what the reference saw when
#: the op blocked: an eager send is complete as it is posted, a receive is
#: complete when the unexpected queue already holds its message, and the
#: other two wait (a later delivery; a rendezvous handshake).
ROUTES = {
    (SendOp, True): "eager send complete at posting",
    (SendOp, False): "rendezvous send",
    (RecvOp, True): "receive met from the unexpected queue",
    (RecvOp, False): "receive waiting for a later delivery",
}
#: Below lu's 2,560-byte and sweep3d's 5,120/6,400-byte wavefront blocks, so
#: their blocking wavefront sends take the rendezvous route (the small
#: collective messages stay eager).
LOW_EAGER = MachineConfig(eager_threshold=2048)
#: The routes each machine's cells must take at least once.
MACHINES = {
    "default": (MachineConfig(), [
        "eager send complete at posting",
        "receive met from the unexpected queue",
        "receive waiting for a later delivery",
    ]),
    "low-eager": (LOW_EAGER, ["rendezvous send", "receive waiting for a later delivery"]),
}
ROUTE_CELLS = [("lu", 16, {"scale": 0.01}), ("sweep3d", 16, {"scale": 0.05})]


class RouteCountingReference(ReferenceEngine):
    """The reference engine, counting the route of each blocking send/recv."""

    def run(self, programs):
        self.routes = dict.fromkeys(ROUTES.values(), 0)
        self.last_op = {}
        if len(programs) == 1:
            programs = list(programs) * self.nprocs
        return super().run([self.spied(factory) for factory in programs])

    def spied(self, factory):
        def program(ctx):
            inner = factory(ctx)
            value = None
            while True:
                try:
                    op = inner.send(value)
                except StopIteration:
                    return
                self.last_op[ctx.rank] = op
                value = yield op
        return program

    def block(self, rank, requests, result):
        route = ROUTES.get((type(self.last_op[rank]), requests[0].completed))
        if route is not None:
            self.routes[route] += 1
        return super().block(rank, requests, result)


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("policy", ["standard", "credit"])
@pytest.mark.parametrize(
    "name,nprocs,params", ROUTE_CELLS, ids=[c[0] for c in ROUTE_CELLS]
)
def test_blocking_op_routes_match_reference(name, nprocs, params, policy, machine):
    machine_config, required = MACHINES[machine]
    workload = create_workload(name, nprocs=nprocs, **params)
    oracle = RouteCountingReference(
        nprocs, create_policy(policy), network=NETWORKS["default"],
        machine=machine_config, seed=SEED,
    )
    expected = reference(workload, policy, "default", oracle=oracle)
    assert all(oracle.routes[route] > 0 for route in required), oracle.routes
    check(workload, policy, "default", MODES, expected=expected, machine=machine_config)
