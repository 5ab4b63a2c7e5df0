"""Behavioural tests of the application skeletons (message-stream structure).

These tests check the properties of each skeleton that matter for the paper:
per-iteration message counts, the set of senders, the set of message sizes,
and (for BT) the periodicity of the stream — i.e. that the simulated traces
have the same *shape* as the corresponding Table 1 rows.
"""

import pytest

from repro.core.dpd import DynamicPeriodicityDetector
from repro.scenario import Scenario
from repro.sim.engine import Simulator
from repro.trace.streams import sender_stream, size_stream, summarize_stream
from repro.workloads.registry import create_workload


def p2p_records(result, rank):
    return [r for r in result.trace_for(rank).logical if r.kind == "p2p"]


class TestBT:
    def test_messages_per_iteration_is_six_times_side(self, bt9_run):
        workload, result = bt9_run
        records = p2p_records(result, 3)
        assert len(records) == 18 * workload.iterations

    def test_bt4_messages_per_iteration(self, bt4_run):
        workload, result = bt4_run
        records = p2p_records(result, 3)
        assert len(records) == 12 * workload.iterations

    def test_three_distinct_p2p_sizes(self, bt9_run):
        _, result = bt9_run
        sizes = set(size_stream(result.trace_for(3).logical, kinds=["p2p"]).tolist())
        assert sizes == {3240, 10240, 19440}

    def test_sender_stream_period_is_18_for_bt9(self, bt9_run):
        _, result = bt9_run
        stream = sender_stream(result.trace_for(3).logical, kinds=["p2p"])
        detector = DynamicPeriodicityDetector(window_size=36, max_period=64)
        for value in stream[:200]:
            detector.observe(int(value))
        assert detector.detect().period == 18

    def test_bt4_has_three_senders(self, bt4_run):
        _, result = bt4_run
        senders = set(sender_stream(result.trace_for(3).logical, kinds=["p2p"]).tolist())
        assert len(senders) == 3

    def test_all_ranks_receive_same_count(self, bt9_run):
        workload, result = bt9_run
        counts = {len(p2p_records(result, rank)) for rank in range(9)}
        assert counts == {18 * workload.iterations}

    def test_collective_messages_present_but_few(self, bt9_run):
        _, result = bt9_run
        summary = summarize_stream(result.trace_for(3).logical)
        assert 0 < summary.collective_messages <= 12


class TestCG:
    def test_only_p2p_messages(self, cg8_run):
        _, result = cg8_run
        summary = summarize_stream(result.trace_for(1).logical)
        assert summary.collective_messages == 0

    def test_two_distinct_sizes(self, cg8_run):
        _, result = cg8_run
        summary = summarize_stream(result.trace_for(1).logical)
        assert summary.num_distinct_sizes == 2

    def test_messages_per_inner_iteration(self, cg8_run):
        workload, result = cg8_run
        records = p2p_records(result, 1)
        inner_per_outer = workload.INNER_ITERATIONS + 1
        # 3 * log2(num_cols) + 1 receives per inner iteration, plus the outer
        # norm reduction (log2(num_cols) receives per outer iteration).
        expected = workload.iterations * (inner_per_outer * 7 + 2)
        assert len(records) == expected

    def test_few_senders(self, cg8_run):
        _, result = cg8_run
        summary = summarize_stream(result.trace_for(1).logical)
        assert summary.num_distinct_senders <= 4


class TestLU:
    def test_corner_rank_receives_two_per_plane(self, lu4_run):
        workload, result = lu4_run
        records = p2p_records(result, 0)
        sweeps = 2 * (workload.NZ - 1)  # lower + upper sweep receives
        halos = 2  # two neighbours on the open 2x2 grid
        assert len(records) == workload.iterations * (sweeps + halos)

    def test_corner_rank_has_two_senders(self, lu4_run):
        _, result = lu4_run
        senders = set(sender_stream(result.trace_for(0).logical, kinds=["p2p"]).tolist())
        assert len(senders) == 2

    def test_sizes_are_sweep_and_halo(self, lu4_run):
        workload, result = lu4_run
        sizes = set(size_stream(result.trace_for(0).logical, kinds=["p2p"]).tolist())
        assert sizes == {workload.SWEEP_BYTES, workload.HALO_BYTES}

    def test_representative_rank_changes_at_32(self):
        assert create_workload("lu", nprocs=4).representative_rank() == 0
        assert create_workload("lu", nprocs=32).representative_rank() == 1


class TestIS:
    def test_p2p_count_equals_iterations(self, is8_run):
        workload, result = is8_run
        records = p2p_records(result, 0)
        assert len(records) == workload.iterations

    def test_collective_messages_dominate(self, is8_run):
        _, result = is8_run
        summary = summarize_stream(result.trace_for(0).logical)
        assert summary.collective_messages > 10 * summary.p2p_messages

    def test_receives_from_every_other_rank(self, is8_run):
        _, result = is8_run
        summary = summarize_stream(result.trace_for(0).logical)
        assert summary.num_distinct_senders == 7

    def test_collective_count_scales_with_nprocs(self):
        small = Scenario({"workload": "is.4:scale=1.0", "seed": 1}).run()
        counts_small = small.summary(rank=0).collective_messages
        large = Scenario({"workload": "is.8:scale=1.0", "seed": 1}).run()
        counts_large = large.summary(rank=0).collective_messages
        assert counts_large > 1.5 * counts_small


class TestSweep3D:
    def test_corner_receives_eight_blocks_per_octant_pair(self, sweep3d6_run):
        workload, result = sweep3d6_run
        # Rank 0 is the (0,0) corner of the 3x2 grid: it has upstream
        # neighbours in 4 of the 8 octants for x and 4 for y.
        records = p2p_records(result, 0)
        expected = workload.iterations * 8 * workload.K_BLOCKS
        assert len(records) == expected

    def test_edge_rank_receives_more(self, sweep3d6_run):
        workload, result = sweep3d6_run
        corner = len(p2p_records(result, 0))
        edge = len(p2p_records(result, 1))
        assert edge == corner * 3 // 2

    def test_two_distinct_sizes(self, sweep3d6_run):
        workload, result = sweep3d6_run
        sizes = set(size_stream(result.trace_for(0).logical, kinds=["p2p"]).tolist())
        assert sizes == {workload.EW_BYTES, workload.NS_BYTES}

    def test_collectives_once_per_iteration(self, sweep3d6_run):
        workload, result = sweep3d6_run
        summary = summarize_stream(result.trace_for(0).logical)
        assert summary.collective_messages >= workload.iterations


class TestSynthetic:
    def test_periodic_pattern_stream_matches_definition(self):
        pattern = [(1, 100), (2, 200), (1, 100), (3, 300)]
        workload = create_workload("periodic-pattern", nprocs=4, pattern=pattern, iterations=10)
        result = Simulator(workload.nprocs, seed=1).run([workload.program_for])
        senders = sender_stream(result.trace_for(0).logical).tolist()
        sizes = size_stream(result.trace_for(0).logical).tolist()
        assert senders == [s for s, _ in pattern] * 10
        assert sizes == [b for _, b in pattern] * 10

    def test_periodic_pattern_invalid_sender(self):
        with pytest.raises(ValueError):
            create_workload("periodic-pattern", nprocs=2, pattern=[(5, 10)])

    def test_ring_exchange_alternates_sizes(self):
        workload = create_workload("ring-exchange", nprocs=4, iterations=6)
        result = Simulator(workload.nprocs, seed=1).run([workload.program_for])
        sizes = size_stream(result.trace_for(0).logical).tolist()
        assert sizes == [workload.SMALL_BYTES, workload.LARGE_BYTES] * 3

    def test_random_sender_receives_expected_total(self):
        workload = create_workload("random-sender", nprocs=4, messages_per_rank=5)
        result = Simulator(workload.nprocs, seed=1).run([workload.program_for])
        assert len(result.trace_for(0).logical) == 15

    def test_collective_storm_runs(self):
        workload = create_workload("collective-storm", nprocs=4, iterations=3)
        result = Simulator(workload.nprocs, seed=1).run([workload.program_for])
        summary = summarize_stream(result.trace_for(0).logical)
        assert summary.p2p_messages == 0
        assert summary.collective_messages > 0
