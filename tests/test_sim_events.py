"""Tests for repro.sim.events (typed records, batching, ``(time, seq)`` order)."""

import pytest
from hypothesis import given, settings, strategies as st

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
        queue.push(1.0, lambda: None)
        assert len(queue) == 2
        queue.pop()
        assert len(queue) == 1
        queue.pop()
        assert len(queue) == 0
        assert not queue

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None

    def test_events_processed_counts_only_real_pops(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.pop()
        assert queue.pop() is None  # an empty pop is not an event
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

    def test_record_is_exactly_five_fields(self):
        queue = EventQueue()
        state = object()
        queue.push_typed(0.0, EVENT_CALLBACK, None)
        assert queue.push_typed(2.5, EVENT_STEP, state, "value") == [
            2.5, 1, EVENT_STEP, state, "value"
        ]
        items = [(object(), None)]
        assert queue.push_deliver_batch(3.0, items) == [
            3.0, 2, EVENT_DELIVER_BATCH, items, None
        ]

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

    def test_batch_interleaves_with_singles_by_seq(self):
        queue = EventQueue()
        first = queue.push_typed(1.0, EVENT_CALLBACK, "a")
        batch = queue.push_deliver_batch(1.0, [(object(), None), (object(), None)])
        last = queue.push_typed(1.0, EVENT_CALLBACK, "b")
        assert [queue.pop() for _ in range(3)] == [first, batch, last]
        assert queue.events_processed == 4


class TestPushAtDrainTime:
    """A push at the timestamp being drained is plain ``(time, seq)`` order."""

    def test_push_at_drain_time_pops_before_later_events(self):
        queue = EventQueue()
        queue.push_typed(1.0, EVENT_CALLBACK, "warm")
        queue.pop()
        # A later-time event is pushed first, then one at the drain time: the
        # earlier time must still pop first.
        later = queue.push_typed(2.0, EVENT_CALLBACK, "later")
        now = queue.push_typed(1.0, EVENT_CALLBACK, "now")
        assert queue.pop() is now
        assert queue.pop() is later

    def test_push_at_drain_time_sorts_after_pending_same_time(self):
        queue = EventQueue()
        queue.push_typed(1.0, EVENT_CALLBACK, None)
        pending = queue.push_typed(1.0, EVENT_CALLBACK, "pending-first")
        queue.pop()  # draining t=1.0; "pending-first" is still queued
        pushed = queue.push_typed(1.0, EVENT_CALLBACK, "pushed-second")
        # Both pending at t=1.0: the earlier push has the smaller seq.
        assert queue.pop() is pending
        assert queue.pop() is pushed


#: One queue operation: a single push ``(dt, 0)``, a batch push of ``n`` items
#: ``(dt, n)``, or a pop (``None``).  ``dt`` is the distance from the last
#: popped time, so pushes never land earlier than the drain point.
_DELTAS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5])
_QUEUE_OPS = st.lists(
    st.one_of(
        st.none(),
        st.tuples(_DELTAS, st.just(0)),
        st.tuples(_DELTAS, st.integers(min_value=1, max_value=5)),
    ),
    max_size=60,
)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(_QUEUE_OPS)
    def test_any_interleaving_pops_in_time_seq_order(self, ops):
        queue = EventQueue()
        now = 0.0
        pushed = popped = 0
        last_key = (-1.0, -1)
        for op in ops + [None] * len(ops):  # then drain what is left
            if op is None:
                head = queue.peek_record()
                record = queue.pop()
                assert record is head
                if record is None:
                    assert pushed == popped
                    continue
                key = (record[EV_TIME], record[EV_SEQ])
                assert key > last_key
                last_key = key
                now = record[EV_TIME]
                popped += (
                    len(record[EV_A]) if record[EV_KIND] == EVENT_DELIVER_BATCH else 1
                )
            else:
                dt, batch = op
                if batch:
                    queue.push_deliver_batch(now + dt, [(object(), None)] * batch)
                    pushed += batch
                else:
                    queue.push_typed(now + dt, EVENT_STEP, object())
                    pushed += 1
            assert len(queue) == pushed - popped
            assert bool(queue) == (pushed > popped)
            assert queue.events_processed == popped
        assert popped == pushed
