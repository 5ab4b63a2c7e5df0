"""The simulator against the reference engine (``tests/reference_engine.py``).

The reference runs the generator protocol one event at a time with its own
matching, protocol timing, buffer accounting and traces.  The simulator must
agree with it bit for bit — per-rank finish times, makespan, every rank's
canonical logical and physical streams and the integer protocol counters —
compiled under the vectorised engine, as generators under the scalar engine,
and on one cell partitioned across two worker processes.  Two wavefront cells
are checked once more with every blocking send and receive route counted on
the reference side, so each route is known to be taken.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.mpi.ops import RecvOp, SendOp
from repro.predictive.registry import create_policy
from repro.sim.engine import Simulator
from repro.sim.machine import MachineConfig
from repro.sim.network import NetworkConfig
from repro.workloads.registry import create_workload, workload_names

from reference_engine import ReferenceEngine

#: (workload, nprocs, parameters): the registry but ``replay``, at small scale.
CELLS = [
    ("bt", 9, {"scale": 0.03}),
    ("cg", 8, {"scale": 0.05}),
    ("lu", 4, {"scale": 0.01}),
    ("is", 8, {"scale": 0.1}),
    ("sweep3d", 6, {"scale": 0.05}),
    ("periodic-pattern", 4, {"scale": 0.2}),
    ("ring-exchange", 4, {"scale": 0.2}),
    ("random-sender", 4, {"messages_per_rank": 10}),
    ("collective-storm", 4, {"scale": 0.2}),
    ("collective-mix", 4, {"scale": 0.2}),
]
NETWORKS = {"default": NetworkConfig(), "noiseless": NetworkConfig.noiseless()}
POLICIES = [
    "standard",
    "always-rendezvous",
    "predictive-credits",
    "predictive-buffers",
    "predictive-rendezvous",
]
SEED = 29


def reference(workload, policy, network):
    engine = ReferenceEngine(
        workload.nprocs, create_policy(policy), network=NETWORKS[network], seed=SEED
    )
    finish, logical, physical, counters = engine.run([workload.program])
    return max(finish), finish, logical, physical, counters


def simulated(workload, policy, network, compiled, engine, machine=None):
    result = Simulator(
        workload.nprocs,
        machine=machine,
        network=NETWORKS[network],
        policy=create_policy(policy),
        seed=SEED,
        engine=engine,
    ).run([workload.program_for if compiled else workload.program])
    assert engine != "parallel" or "partitions" in result.parallel_info
    streams = []
    for level in ("logical", "physical"):
        streams.append([
            [(r.sender, r.nbytes, r.tag, r.kind, r.time)
             for r in getattr(result.trace_for(rank), level)]
            for rank in range(result.nprocs)
        ])
    counters = {k: v for k, v in result.stats.summary().items() if isinstance(v, int)}
    return result.makespan, result.rank_finish_times, *streams, counters


def check(name, nprocs, params, policy, network, engines):
    workload = create_workload(name, nprocs=nprocs, **params)
    expected = reference(workload, policy, network)
    assert expected[4]["messages_sent"] > 0
    for compiled, engine in engines:
        assert simulated(workload, policy, network, compiled, engine) == expected, (
            f"{name}.{nprocs} {policy} {network}: compiled={compiled} {engine}"
        )


BOTH = [(True, "vectorised"), (False, "scalar")]


@pytest.mark.parametrize("network", sorted(NETWORKS))
@pytest.mark.parametrize("name,nprocs,params", CELLS, ids=[c[0] for c in CELLS])
def test_registry_matches_reference(name, nprocs, params, network):
    check(name, nprocs, params, "standard", network, BOTH)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name,nprocs,params", [CELLS[0], CELLS[7]], ids=["bt", "random-sender"])
def test_policies_match_reference(name, nprocs, params, policy):
    check(name, nprocs, params, policy, "default", BOTH)


def test_parallel_engine_matches_reference():
    check("bt", 9, {"scale": 0.03}, "standard", "noiseless", [(True, "parallel")])


def test_cells_cover_the_registry_but_replay():
    assert sorted(c[0] for c in CELLS) == sorted(set(workload_names()) - {"replay"})


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
ROUTE_ENGINES = [(True, "vectorised"), (True, "scalar"), (False, "scalar")]


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
    finish, logical, physical, counters = oracle.run([workload.program])
    expected = (max(finish), finish, logical, physical, counters)
    assert all(oracle.routes[route] > 0 for route in required), oracle.routes
    for compiled, engine in ROUTE_ENGINES:
        got = simulated(workload, policy, "default", compiled, engine, machine_config)
        assert got == expected, f"{name}.{nprocs} {policy} {machine}: compiled={compiled} {engine}"
