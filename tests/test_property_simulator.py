"""Property-based tests of the simulation substrate.

The invariants checked here hold for *any* legal communication pattern:

* conservation: every sent message is received exactly once, at both trace
  levels, at the correct destination;
* determinism: the same seed reproduces the same simulation, a different seed
  perturbs timing but never the logical structure (on random schedules, and
  on paper cells, where it also reorders the physical stream);
* ordering: per-(source, destination, tag) FIFO delivery;
* the noiseless network makes the physical stream identical to the logical
  one.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import ExperimentContext
from repro.sim.engine import Simulator
from repro.sim.network import NetworkConfig


def exchange_program(schedule, nbytes_choices):
    """Build an SPMD program from a schedule of (sender, receiver, size_idx)."""

    def program(ctx):
        comm = ctx.comm
        for index, (sender, receiver, size_index) in enumerate(schedule):
            nbytes = nbytes_choices[size_index % len(nbytes_choices)]
            tag = index % 8
            if ctx.rank == sender:
                yield comm.send(receiver, nbytes, tag=tag)
            elif ctx.rank == receiver:
                yield comm.recv(source=sender, tag=tag)
        # A final barrier keeps every rank alive until all traffic has drained.
        yield from comm.barrier()

    return program


def schedules(nprocs, max_messages=30):
    pair = st.tuples(
        st.integers(0, nprocs - 1), st.integers(0, nprocs - 1), st.integers(0, 3)
    ).filter(lambda t: t[0] != t[1])
    return st.lists(pair, min_size=1, max_size=max_messages)


NPROCS = 4
SIZES = [64, 2048, 20_000, 100_000]


def run_schedule(schedule, seed=3, network=None):
    simulator = Simulator(
        nprocs=NPROCS,
        seed=seed,
        network=network if network is not None else NetworkConfig(seed=seed),
    )
    return simulator.run([exchange_program(schedule, SIZES)])


class TestConservationProperties:
    @given(schedule=schedules(NPROCS))
    @settings(max_examples=30, deadline=None)
    def test_every_message_received_once_at_both_levels(self, schedule):
        result = run_schedule(schedule)
        expected = Counter(
            (sender, receiver, SIZES[size_index % len(SIZES)])
            for sender, receiver, size_index in schedule
        )
        logical = Counter()
        physical = Counter()
        for rank in range(NPROCS):
            trace = result.trace_for(rank)
            for record in trace.logical:
                if record.kind == "p2p":
                    logical[(record.sender, rank, record.nbytes)] += 1
            for record in trace.physical:
                if record.kind == "p2p":
                    physical[(record.sender, rank, record.nbytes)] += 1
        assert logical == expected
        assert physical == expected

    @given(schedule=schedules(NPROCS))
    @settings(max_examples=20, deadline=None)
    def test_stats_agree_with_schedule(self, schedule):
        result = run_schedule(schedule)
        assert result.stats.p2p_messages == len(schedule)
        assert result.stats.bytes_sent >= sum(
            SIZES[i % len(SIZES)] for _, _, i in schedule
        )

    @given(schedule=schedules(NPROCS))
    @settings(max_examples=20, deadline=None)
    def test_makespan_positive_and_finite(self, schedule):
        result = run_schedule(schedule)
        assert 0.0 < result.makespan < 60.0


class TestDeterminismProperties:
    @given(schedule=schedules(NPROCS), seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_same_seed_reproduces_everything(self, schedule, seed):
        first = run_schedule(schedule, seed=seed)
        second = run_schedule(schedule, seed=seed)
        assert first.makespan == second.makespan
        for rank in range(NPROCS):
            a = [(r.sender, r.nbytes, r.time) for r in first.trace_for(rank).physical]
            b = [(r.sender, r.nbytes, r.time) for r in second.trace_for(rank).physical]
            assert a == b

    @given(schedule=schedules(NPROCS))
    @settings(max_examples=15, deadline=None)
    def test_logical_structure_independent_of_seed(self, schedule):
        first = run_schedule(schedule, seed=1)
        second = run_schedule(schedule, seed=2)
        for rank in range(NPROCS):
            a = [(r.sender, r.nbytes) for r in first.trace_for(rank).logical]
            b = [(r.sender, r.nbytes) for r in second.trace_for(rank).logical]
            assert a == b


#: Paper cells whose physical sender stream two seeds reorder at scale 0.02
#: (on is.4 and is.8 they do not).
SEEDED_CELLS = [("bt", 4), ("cg", 4), ("lu", 4), ("sweep3d", 6)]


@pytest.mark.parametrize("workload,nprocs", SEEDED_CELLS)
def test_seed_moves_physical_order_not_logical_structure(workload, nprocs):
    """Two seeds, one paper cell: the logical sender and size streams are
    equal, the physical sender stream is not — a physical-level result is
    one draw of a spread, a logical one is not."""
    first, second = (
        ExperimentContext(seed=seed, scale=0.02).run_named(workload, nprocs)
        for seed in (2003, 11)
    )
    for kind in ("sender", "size"):
        assert list(first.stream(kind, "logical")) == list(second.stream(kind, "logical"))
    assert list(first.stream("sender", "physical")) != list(second.stream("sender", "physical"))


class TestOrderingProperties:
    @given(schedule=schedules(NPROCS, max_messages=40))
    @settings(max_examples=20, deadline=None)
    def test_fifo_per_channel_and_tag(self, schedule):
        result = run_schedule(schedule, network=NetworkConfig(jitter_sigma=1.0, seed=9))
        # For each (sender, receiver, tag), sizes must be received in the
        # order they were sent.
        sent: dict[tuple[int, int, int], list[int]] = {}
        for index, (sender, receiver, size_index) in enumerate(schedule):
            sent.setdefault((sender, receiver, index % 8), []).append(
                SIZES[size_index % len(SIZES)]
            )
        for rank in range(NPROCS):
            seen: dict[tuple[int, int, int], list[int]] = {}
            for record in result.trace_for(rank).physical:
                if record.kind != "p2p":
                    continue
                seen.setdefault((record.sender, rank, record.tag), []).append(record.nbytes)
            for key, sizes in seen.items():
                assert sizes == sent[key]

    @given(schedule=schedules(NPROCS), seeds=st.tuples(st.integers(0, 100), st.integers(101, 200)))
    @settings(max_examples=15, deadline=None)
    def test_noiseless_network_is_seed_independent(self, schedule, seeds):
        """Without jitter (and without compute noise) the seed cannot matter."""
        results = [
            run_schedule(schedule, seed=seed, network=NetworkConfig.noiseless(seed=seed))
            for seed in seeds
        ]
        assert results[0].makespan == results[1].makespan
        for rank in range(NPROCS):
            traces = [
                [(r.sender, r.nbytes, r.time) for r in result.trace_for(rank).physical]
                for result in results
            ]
            assert traces[0] == traces[1]
