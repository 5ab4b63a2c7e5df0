"""What the tests share: cells, policies, one runner and one oracle.

Every module that compares simulator runs reads its cells, policies and
comparisons from here, so a new workload or policy joins every check at once.
Fault-free runs are compared with the reference engine, and their run modes
with each other on the full :func:`fingerprint` (:func:`check`); runs with
faults, which the reference does not model, with each other only.  The paper grid's settings live here too; the grid
itself is the session fixture ``paper_grid`` in ``conftest.py``.
"""

from __future__ import annotations

from pathlib import Path

from repro.predictive.registry import create_policy, policy_names
from repro.sim.engine import Simulator
from repro.sim.network import NetworkConfig
from repro.sim.registry import create_faults
from repro.workloads.compile import compile_info
from repro.workloads.registry import create_workload

from reference_engine import ReferenceEngine

#: The committed sample trace (also the CLI quickstart's replay input).
SAMPLE_TRACE = str(Path(__file__).resolve().parent.parent / "examples" / "sample_trace.jsonl")

#: Seed and run scale of the paper grid: the artefact suites' defaults.
PAPER_SEED, PAPER_SCALE = 2003, 0.25

#: (workload, nprocs, parameters): the full registry at smoke scales.
REGISTRY_CELLS = [
    ("bt", 9, {"scale": 0.03}),
    ("cg", 8, {"scale": 0.05}),
    ("lu", 4, {"scale": 0.01}),
    ("is", 8, {"scale": 0.2}),
    ("sweep3d", 6, {"scale": 0.1}),
    ("periodic-pattern", 4, {"scale": 0.2}),
    ("ring-exchange", 4, {"scale": 0.2}),
    ("random-sender", 4, {"messages_per_rank": 10}),
    ("collective-storm", 4, {"scale": 0.2}),
    ("collective-mix", 4, {"iterations": 3}),
    ("replay", 4, {"file": SAMPLE_TRACE}),
]
CELL_IDS = [f"{name}.{nprocs}" for name, nprocs, _ in REGISTRY_CELLS]

#: Every registered flow-control policy, and those a partitioned run accepts
#: (their eager decisions read no receiver state).
POLICIES = policy_names()
PARTITION_SAFE = [p for p in POLICIES if getattr(create_policy(p), "partition_safe", False)]

#: The two network models of the checks: jittered and contended, and
#: deterministic (positive latency, so a partitioned run engages on it).
NETWORKS = {"default": NetworkConfig(), "noiseless": NetworkConfig.noiseless()}

#: (compiled, engine, engine_jobs): the in-process run modes.  The drain
#: batches compiled-rank steps only, so generator ranks run under one.
MODES = [(True, "auto", 1), (True, "scalar", 1), (False, "auto", 1)]
#: Partitioned run modes, two partitions under one drain and three under the other.
PARTITIONED = [(True, "auto", 2), (True, "scalar", 3)]

SEED = 23


def simulate(
    workload,
    policy="standard",
    *,
    seed=SEED,
    network="default",
    machine=None,
    faults=None,
    compiled=True,
    engine="auto",
    engine_jobs=1,
    tracer=True,
):
    """One simulator run of ``workload``; ``compiled=False`` forces generators.

    ``network`` names one of :data:`NETWORKS` or is a ``NetworkConfig``.
    """
    return Simulator(
        workload.nprocs,
        seed=seed,
        machine=machine,
        network=NETWORKS.get(network, network),
        policy=create_policy(policy),
        faults=create_faults(faults) if faults else None,
        tracer=tracer,
        engine=engine,
        engine_jobs=engine_jobs,
    ).run([workload.program_for if compiled else workload.program])


def run_cell(cell, policy="standard", **options):
    """:func:`simulate` on a fresh workload built from a ``(name, nprocs, params)`` cell."""
    name, nprocs, params = cell
    return simulate(create_workload(name, nprocs=nprocs, **params), policy, **options)


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


def reference(workload, policy, network, seed=SEED, oracle=None):
    """The reference engine's run of ``workload``, in :func:`observed`'s form."""
    oracle = oracle or ReferenceEngine(
        workload.nprocs, create_policy(policy), network=NETWORKS.get(network, network), seed=seed
    )
    finish, logical, physical, counters = oracle.run([workload.program])
    return max(finish), finish, logical, physical, counters


def observed(result):
    """What the reference computes, read from a simulator result."""
    streams = []
    for level in ("logical", "physical"):
        streams.append([
            [(r.sender, r.nbytes, r.tag, r.kind, r.time)
             for r in getattr(result.trace_for(rank), level)]
            for rank in range(result.nprocs)
        ])
    counters = {k: v for k, v in result.stats.summary().items() if isinstance(v, int)}
    return result.makespan, result.rank_finish_times, *streams, counters


def assert_partitioned(workload, result):
    """``result`` ran partitioned, or fell back because a rank of ``workload``
    does not compile (the windowed drain steps compiled lanes only)."""
    info = result.parallel_info
    if all(compile_info(workload, rank)["compiled"] for rank in range(workload.nprocs)):
        assert "partitions" in info, info
    else:
        assert "generator" in info["fallback"], info


def check(workload, policy, network, modes, seed=SEED, expected=None, machine=None, first=None):
    """Each ``(compiled, engine, engine_jobs)`` run mode equals the reference.

    The reference leaves out the event count, the float latency statistics
    and the record sequence numbers, so each mode's full :func:`fingerprint`
    must also equal the first mode's; ``first`` carries that fingerprint
    across calls (one dict per cell).  A partitioned mode must really
    partition (:func:`assert_partitioned`).  Returns the reference's counters.
    """
    expected = expected or reference(workload, policy, network, seed)
    first = {} if first is None else first
    for compiled, engine, jobs in modes:
        result = simulate(
            workload, policy, seed=seed, network=network, machine=machine,
            compiled=compiled, engine=engine, engine_jobs=jobs,
        )
        if jobs > 1:
            assert_partitioned(workload, result)
        mode = (
            f"{workload.name}.{workload.nprocs} {policy} {network}: "
            f"compiled={compiled} {engine} jobs={jobs}"
        )
        assert observed(result) == expected, mode
        prints = fingerprint(result)
        assert prints == first.setdefault("fingerprint", prints), mode
    return expected[4]
