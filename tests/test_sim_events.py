"""Tests for repro.sim.events (typed records, batching, fast lane)."""

import pytest

from repro.sim.events import (
    EV_A,
    EV_B,
    EV_KIND,
    EV_SEQ,
    EV_TIME,
    EVENT_CALLBACK,
    EVENT_DELIVER,
    EVENT_DELIVER_BATCH,
    EVENT_STEP,
    EventQueue,
)


def drain(queue):
    """Pop every record, firing callback events, and return the records."""
    records = []
    while (record := queue.pop()) is not None:
        if record[EV_KIND] == EVENT_CALLBACK:
            record[EV_A]()
        records.append(record)
    return records


class TestEventQueue:
    def test_pop_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.push(2.0, lambda: order.append("b"))
        queue.push(1.0, lambda: order.append("a"))
        queue.push(3.0, lambda: order.append("c"))
        drain(queue)
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        order = []
        for name in "abc":
            queue.push(1.0, lambda n=name: order.append(n))
        drain(queue)
        assert order == ["a", "b", "c"]

    def test_len_and_bool_maintained_counter(self):
        queue = EventQueue()
        assert not queue
        assert len(queue) == 0
        queue.push(0.0, lambda: None)
        assert queue
        assert len(queue) == 1
        record = queue.push(1.0, lambda: None)
        assert len(queue) == 2
        queue.cancel(record)
        assert len(queue) == 1
        queue.pop()
        assert len(queue) == 0
        assert not queue

    def test_cancel_is_idempotent(self):
        queue = EventQueue()
        record = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        queue.cancel(record)
        queue.cancel(record)  # double-cancel must not corrupt the counter
        assert len(queue) == 1

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        record = queue.push(1.0, lambda: None)
        queue.cancel(record)
        assert queue.pop() is None
        assert len(queue) == 0

    def test_events_processed_counts_only_real_pops(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        cancelled = queue.push(2.0, lambda: None)
        queue.cancel(cancelled)
        queue.pop()
        queue.pop()
        assert queue.events_processed == 1

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, lambda: None)

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(5.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert queue.peek_time() == 2.0

    def test_peek_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        queue.cancel(first)
        assert queue.peek_time() == 2.0

    def test_peek_skips_cancelled_run(self):
        queue = EventQueue()
        records = [queue.push(float(i), lambda: None) for i in range(4)]
        for record in records[:3]:
            queue.cancel(record)
        assert queue.peek_time() == 3.0
        assert queue.pop() is records[3]

    def test_clear(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.clear()
        assert queue.pop() is None
        assert len(queue) == 0


class TestTypedRecords:
    def test_push_typed_step_record(self):
        queue = EventQueue()
        state = object()
        record = queue.push_typed(1.5, EVENT_STEP, state, "value")
        assert record[EV_TIME] == 1.5
        assert record[EV_KIND] == EVENT_STEP
        assert record[EV_A] is state
        assert record[EV_B] == "value"
        assert queue.pop() is record

    def test_push_typed_deliver_record(self):
        queue = EventQueue()
        message, posted = object(), object()
        record = queue.push_typed(1.0, EVENT_DELIVER, message, posted)
        assert record[EV_A] is message
        assert record[EV_B] is posted

    def test_sequence_numbers_monotonic(self):
        queue = EventQueue()
        records = [queue.push_typed(1.0, EVENT_CALLBACK, None) for _ in range(5)]
        seqs = [r[EV_SEQ] for r in records]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 5


class TestBatchRecords:
    def test_deliver_batch_counts_as_len_items(self):
        queue = EventQueue()
        items = [(object(), None), (object(), None)]
        record = queue.push_deliver_batch(2.0, items)
        assert record[EV_KIND] == EVENT_DELIVER_BATCH
        assert record[EV_A] is items
        assert len(queue) == 2
        assert queue.pop() is record
        assert queue.events_processed == 2

    def test_batch_advances_seq_by_batch_size(self):
        # Later pushes must sort after the whole batch, exactly as if its
        # events had been pushed one by one.
        queue = EventQueue()
        batch = queue.push_deliver_batch(1.0, [(object(), None)] * 5)
        single = queue.push_typed(1.0, EVENT_CALLBACK, None)
        assert single[EV_SEQ] == batch[EV_SEQ] + 5

    def test_cancel_batch_discounts_all_members(self):
        queue = EventQueue()
        record = queue.push_deliver_batch(1.0, [(object(), None)] * 4)
        assert len(queue) == 4
        queue.cancel(record)
        assert len(queue) == 0
        queue.cancel(record)  # idempotent
        assert len(queue) == 0
        assert queue.pop() is None

    def test_batch_interleaves_with_singles_by_seq(self):
        queue = EventQueue()
        first = queue.push_typed(1.0, EVENT_CALLBACK, "a")
        batch = queue.push_deliver_batch(1.0, [(object(), None), (object(), None)])
        last = queue.push_typed(1.0, EVENT_CALLBACK, "b")
        assert [queue.pop() for _ in range(3)] == [first, batch, last]
        assert queue.events_processed == 4


class TestZeroDelayFastLane:
    def test_same_time_pushes_take_fast_lane(self):
        queue = EventQueue()
        queue.push_typed(1.0, EVENT_CALLBACK, None)
        queue.pop()  # drain point is now t=1.0
        record = queue.push_typed(1.0, EVENT_CALLBACK, None)
        assert not queue._heap  # bypassed the heap
        assert queue._fast[0] is record
        assert queue.pop() is record

    def test_fast_lane_orders_against_heap_by_seq(self):
        queue = EventQueue()
        queue.push_typed(1.0, EVENT_CALLBACK, "warm")
        queue.pop()
        # Heap gets a later-time event first, then a zero-delay event: the
        # zero-delay event (earlier time) must still pop first.
        later = queue.push_typed(2.0, EVENT_CALLBACK, "later")
        fastlane = queue.push_typed(1.0, EVENT_CALLBACK, "now")
        assert queue.pop() is fastlane
        assert queue.pop() is later

    def test_fast_lane_respects_pending_heap_seq_at_same_time(self):
        queue = EventQueue()
        queue.push_typed(1.0, EVENT_CALLBACK, None)
        first_heap = queue.push_typed(1.0, EVENT_CALLBACK, "heap-first")
        queue.pop()  # drain point t=1.0; "heap-first" still pending in heap
        lane = queue.push_typed(1.0, EVENT_CALLBACK, "lane-second")
        # Both pending at t=1.0: the heap record has the smaller seq.
        assert queue.pop() is first_heap
        assert queue.pop() is lane

    def test_cancelled_fast_lane_event_skipped(self):
        queue = EventQueue()
        queue.push_typed(1.0, EVENT_CALLBACK, None)
        queue.pop()
        record = queue.push_typed(1.0, EVENT_CALLBACK, None)
        survivor = queue.push_typed(1.0, EVENT_CALLBACK, "ok")
        queue.cancel(record)
        assert queue.pop() is survivor
        assert queue.peek_time() is None
