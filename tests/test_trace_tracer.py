"""Tests for the two-level tracer (repro.trace.tracer)."""

import pytest

from repro.trace.tracer import TwoLevelTracer


class TestTracerHooks:
    def test_logical_records_follow_post_order(self):
        tracer = TwoLevelTracer(nprocs=1)
        # Post two receives, match them in reverse completion order: logical
        # stream must still follow posting order.
        tracer.on_recv_posted(0, req_id=10, time=0.0)
        tracer.on_recv_posted(0, req_id=11, time=0.1)
        tracer.on_recv_matched(0, req_id=11, sender=2, nbytes=200, tag=0, kind="p2p", time=0.5)
        tracer.on_recv_matched(0, req_id=10, sender=1, nbytes=100, tag=0, kind="p2p", time=0.6)
        trace = tracer.trace_for(0)
        assert [r.sender for r in trace.logical] == [1, 2]
        assert [r.seq for r in trace.logical] == [0, 1]

    def test_physical_records_follow_arrival_time(self):
        tracer = TwoLevelTracer(nprocs=1)
        tracer.on_message_arrival(0, sender=5, nbytes=10, tag=0, kind="p2p", time=2.0)
        tracer.on_message_arrival(0, sender=6, nbytes=10, tag=0, kind="p2p", time=1.0)
        trace = tracer.trace_for(0)
        assert [r.sender for r in trace.physical] == [6, 5]

    def test_unannounced_match_appended(self):
        tracer = TwoLevelTracer(nprocs=1)
        tracer.on_recv_matched(0, req_id=99, sender=3, nbytes=64, tag=1, kind="p2p", time=1.0)
        assert [r.sender for r in tracer.trace_for(0).logical] == [3]

    def test_collective_records_carry_kind_code_1_on_both_levels(self):
        tracer = TwoLevelTracer(nprocs=1)
        tracer.on_recv_posted(0, req_id=1, time=0.0)
        tracer.on_recv_matched(0, req_id=1, sender=1, nbytes=8, tag=0, kind="collective", time=0.1)
        tracer.on_message_arrival(0, sender=1, nbytes=8, tag=0, kind="collective", time=0.1)
        tracer.on_message_arrival(0, sender=2, nbytes=8, tag=0, kind="p2p", time=0.2)
        trace = tracer.trace_for(0)
        assert trace.logical.kind_code_array().tolist() == [1]
        assert trace.physical.kind_code_array().tolist() == [1, 0]

    def test_unmatched_receives_counted(self):
        tracer = TwoLevelTracer(nprocs=2)
        tracer.on_recv_posted(1, req_id=1, time=0.0)
        assert tracer.unmatched_receives(1) == 1
        tracer.on_recv_matched(1, req_id=1, sender=0, nbytes=1, tag=0, kind="p2p", time=0.1)
        assert tracer.unmatched_receives(1) == 0

    def test_invalid_nprocs(self):
        with pytest.raises(ValueError):
            TwoLevelTracer(nprocs=0)

    def test_trace_for_invalid_rank(self):
        with pytest.raises(ValueError):
            TwoLevelTracer(nprocs=2).trace_for(2)

    def test_traces_property_returns_all(self):
        tracer = TwoLevelTracer(nprocs=3)
        assert [t.rank for t in tracer.traces] == [0, 1, 2]

    def test_finalize_idempotent(self):
        tracer = TwoLevelTracer(nprocs=1)
        tracer.on_message_arrival(0, sender=1, nbytes=1, tag=0, kind="p2p", time=1.0)
        tracer.finalize()
        tracer.finalize()
        assert len(tracer.trace_for(0).physical) == 1

    def test_hooks_after_finalize_raise(self):
        tracer = TwoLevelTracer(nprocs=1)
        tracer.on_recv_posted(0, req_id=1, time=0.0)
        tracer.on_recv_matched(0, req_id=1, sender=1, nbytes=8, tag=0, kind="p2p", time=0.1)
        tracer.finalize()
        with pytest.raises(RuntimeError, match="finalized"):
            tracer.on_recv_posted(0, req_id=2, time=0.2)
        with pytest.raises(RuntimeError, match="finalized"):
            tracer.on_recv_matched(0, req_id=2, sender=1, nbytes=8, tag=0, kind="p2p", time=0.3)
        with pytest.raises(RuntimeError, match="finalized"):
            tracer.on_message_arrival(0, sender=1, nbytes=8, tag=0, kind="p2p", time=0.3)
        # The already-recorded stream is untouched by the rejected calls.
        assert len(tracer.trace_for(0).logical) == 1

    def test_trace_for_seals_recording(self):
        tracer = TwoLevelTracer(nprocs=1)
        tracer.trace_for(0)  # implicit finalize
        with pytest.raises(RuntimeError, match="finalized"):
            tracer.on_message_arrival(0, sender=1, nbytes=1, tag=0, kind="p2p", time=1.0)

    def test_out_of_range_sender_or_tag_rejected(self):
        tracer = TwoLevelTracer(nprocs=1)
        with pytest.raises(ValueError, match="meta-column range"):
            tracer.on_message_arrival(
                0, sender=2**31, nbytes=1, tag=0, kind="p2p", time=1.0
            )
        with pytest.raises(ValueError, match="meta-column range"):
            tracer.on_recv_matched(
                0, req_id=9, sender=0, nbytes=1, tag=2**31, kind="p2p", time=1.0
            )


class TestColumnarStore:
    """The columnar store and its lazy record views agree with record lists."""

    def test_record_views_match_appended_data(self):
        tracer = TwoLevelTracer(nprocs=1)
        expected = []
        for i in range(20):
            sender = i % 3
            nbytes = 64 * (1 + i % 4)
            kind = "collective" if i % 5 == 0 else "p2p"
            arrival = 1.0 - i * 0.01  # reverse time order: sort() must fix it
            tracer.on_message_arrival(0, sender, nbytes, tag=i % 2, kind=kind, time=arrival)
            expected.append((sender, nbytes, i % 2, kind, arrival))
        trace = tracer.trace_for(0)
        # Canonical physical order is (time, sender, tag); seq is the
        # canonical stream position, not the insertion index.
        expected.sort(key=lambda t: t[4])
        expected = [rec + (pos,) for pos, rec in enumerate(expected)]
        assert [
            (r.sender, r.nbytes, r.tag, r.kind, r.time, r.seq) for r in trace.physical
        ] == expected
        assert all(r.receiver == 0 for r in trace.physical)

    def test_sequence_protocol(self):
        tracer = TwoLevelTracer(nprocs=1)
        for i in range(5):
            tracer.on_message_arrival(0, sender=i, nbytes=8, tag=0, kind="p2p", time=float(i))
        physical = tracer.trace_for(0).physical
        assert len(physical) == 5
        assert physical[0].sender == 0 and physical[-1].sender == 4
        assert [r.sender for r in physical[1:3]] == [1, 2]
        assert physical == list(physical)
        with pytest.raises(IndexError):
            physical[5]

    def test_records_list_is_callers_to_mutate(self):
        tracer = TwoLevelTracer(nprocs=1)
        tracer.on_message_arrival(0, sender=1, nbytes=8, tag=0, kind="p2p", time=1.0)
        tracer.on_message_arrival(0, sender=2, nbytes=8, tag=0, kind="p2p", time=2.0)
        physical = tracer.trace_for(0).physical
        view = physical.records()
        view.reverse()
        view.pop()
        # Caller mutations never leak back into the column store.
        assert [r.sender for r in physical] == [1, 2]
        assert physical[0].sender == 1

    def test_unknown_kind_rejected_with_clear_error(self):
        from repro.trace.columns import TraceColumns

        columns = TraceColumns(receiver=0)
        with pytest.raises(ValueError, match="unsupported record kind"):
            columns.append(1, 8, 0, "rma", 1.0, 0)

    def test_numpy_column_accessors(self):
        import numpy as np

        tracer = TwoLevelTracer(nprocs=1)
        tracer.on_message_arrival(0, sender=2, nbytes=100, tag=7, kind="collective", time=0.5)
        tracer.on_message_arrival(0, sender=1, nbytes=50, tag=3, kind="p2p", time=0.25)
        physical = tracer.trace_for(0).physical
        assert physical.sender_array().tolist() == [1, 2]
        assert physical.size_array().tolist() == [50, 100]
        assert physical.tag_array().tolist() == [3, 7]
        assert physical.kind_code_array().tolist() == [0, 1]
        assert np.allclose(physical.time_array(), [0.25, 0.5])
        # seq is the canonical (time-sorted) stream position.
        assert physical.seq_array().tolist() == [0, 1]


class TestTraceRecordsFromSimulation:
    def test_logical_matches_program_order(self, noiseless_bt4_run):
        workload, result = noiseless_bt4_run
        trace = result.trace_for(0)
        assert [r.seq for r in trace.logical] == sorted(r.seq for r in trace.logical)

    def test_physical_sorted_by_time(self, noiseless_bt4_run):
        _, result = noiseless_bt4_run
        trace = result.trace_for(0)
        times = [r.time for r in trace.physical]
        assert times == sorted(times)

    def test_same_multiset_at_both_levels(self, bt4_run):
        _, result = bt4_run
        for rank in range(4):
            trace = result.trace_for(rank)
            logical = sorted((r.sender, r.nbytes) for r in trace.logical)
            physical = sorted((r.sender, r.nbytes) for r in trace.physical)
            assert logical == physical

    def test_receiver_field_is_rank(self, bt4_run):
        _, result = bt4_run
        for rank in range(4):
            assert all(r.receiver == rank for r in result.trace_for(rank).logical)
