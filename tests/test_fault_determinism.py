"""Property tests for the fault-injection determinism contract.

Two guarantees, checked across the whole workload registry and the main
flow-control policies:

* **Zero-rate equivalence** — a spec whose fault configuration cannot fire
  (all rates zero) is bit-identical to one with no fault configuration at
  all: same makespan, same statistics, same physical message streams.
* **Seeded reproducibility** — identical specs (fault seed included)
  produce identical traces, summaries and fault counters, whether the cells
  run sequentially or sharded over a process pool.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cells import POLICIES, SAMPLE_TRACE
from repro.scenario import Scenario, ScenarioSpec, Sweep, cell_record
from repro.workloads.registry import workload_names


def _workload_table(name):
    """A smoke-scale spec table for any registry workload (replay reads the sample trace)."""
    if name == "replay":
        return {"name": name, "nprocs": 4, "params": {"file": SAMPLE_TRACE}}
    return {"name": name, "nprocs": 4, "scale": 0.02}

#: Explicitly zero-rate (rather than the default "none" preset) so the
#: equivalence test exercises the is_null path, not spec equality.
ZERO_RATE_FAULTS = {"drop_rate": 0.0, "degrade_factor": 1.0, "stall_rate": 0.0}


def _fingerprint(result):
    """Everything determinism promises: timing, stats, and both streams."""
    return (
        result.makespan,
        result.stats.summary(),
        list(result.stream("sender", level="logical")),
        list(result.stream("sender", level="physical")),
        list(result.stream("size", level="physical")),
        result.result.fault_stats,
    )


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("workload", workload_names())
def test_zero_rate_faults_bit_identical_to_baseline(workload, policy):
    base = dict(
        workload=_workload_table(workload),
        seed=2003,
        policy=policy,
    )
    baseline = Scenario(ScenarioSpec(**base)).run()
    zero_rate = Scenario(ScenarioSpec(**base, faults=ZERO_RATE_FAULTS)).run()
    assert baseline.result.fault_stats is None
    assert zero_rate.result.fault_stats is None  # no injector was built
    assert _fingerprint(zero_rate) == _fingerprint(baseline)


@pytest.mark.parametrize("policy", POLICIES)
def test_faulted_run_reproducible_from_seed(policy):
    spec = ScenarioSpec(
        workload="bt.4:scale=0.05", seed=7, policy=policy, faults="chaos"
    )
    first, second = Scenario(spec).run(), Scenario(spec).run()
    assert first.result.fault_stats == second.result.fault_stats
    assert _fingerprint(first) == _fingerprint(second)


def test_faulted_sweep_sequential_matches_sharded():
    sweep = Sweep(
        base={"workload": "bt.4:scale=0.05", "seed": 11},
        grid={"faults.drop_rate": [0.0, 0.02]},
        cells=[
            {"workload": "cg:nprocs=4,scale=0.05", "faults": "chaos"},
            {"workload": "is:nprocs=4,scale=0.1", "faults": "stall:rate=0.01"},
        ],
    )
    sequential = sweep.run_all()
    sharded = sweep.run_all(jobs=2)
    assert [cell_record(cell) for cell in sequential] == [
        cell_record(cell) for cell in sharded
    ]
    # The zero-rate grid column really ran without an injector.
    assert "fault_stats" not in cell_record(sequential[0])
    assert cell_record(sequential[1])["fault_stats"]["messages_dropped"] > 0


def test_fault_seed_pinning_decouples_fault_schedule():
    # Pinning the fault seed holds the fault schedule fixed while the run
    # seed varies the rest (jitter, compute noise): the drop decisions (a
    # pure function of the drop stream) stay identical.
    records = []
    for run_seed in (1, 2):
        spec = ScenarioSpec(
            workload="bt.4:scale=0.05",
            seed=run_seed,
            faults="drop:rate=0.05,seed=123",
        )
        records.append(Scenario(spec).run().result.fault_stats)
    assert records[0] == records[1]


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    drop_rate=st.floats(min_value=0.0, max_value=0.2),
)
def test_property_fault_runs_reproducible(seed, drop_rate):
    spec = ScenarioSpec(
        workload="ring-exchange:nprocs=4,scale=0.05",
        seed=seed,
        faults={"drop_rate": drop_rate},
    )
    first, second = Scenario(spec).run(), Scenario(spec).run()
    assert _fingerprint(first) == _fingerprint(second)
    if drop_rate == 0.0:
        assert first.result.fault_stats is None
