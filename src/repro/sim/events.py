"""Deterministic typed event queue for the discrete-event simulator.

Events are ordered by ``(time, sequence)`` where the sequence number is the
insertion order; this makes simulations fully deterministic even when many
events share a timestamp (common at t=0 when every rank starts).

The queue is the innermost loop of every simulation, so events are stored as
flat *typed records* — plain lists indexed by the ``EV_*`` constants — rather
than objects with per-event closures:

``[time, seq, kind, a, b, cancelled, popped]``

The ``kind`` field tells the engine how to interpret the two payload slots
``a`` / ``b`` without allocating a closure (or even a payload tuple) per
event:

* :data:`EVENT_CALLBACK` — ``a`` is a zero-argument callable, ``b`` unused
  (the general-purpose lane, used for rendezvous control traffic and tests);
* :data:`EVENT_STEP` — ``a`` is the rank state, ``b`` the resume value:
  resume a rank generator (the engine's hottest event type);
* :data:`EVENT_DELIVER` — ``a`` is the message, ``b`` the pre-matched posted
  receive (or None): a payload physically arrives at its destination rank.
  The engine coalesces consecutive same-timestamp deliveries to one receiver
  into a burst.
* :data:`EVENT_STEP_BATCH` — ``a`` is a list of compiled rank states that all
  step at the record's timestamp, ``b`` unused.  One batch record stands for
  ``len(a)`` individual :data:`EVENT_STEP` records with consecutive sequence
  numbers; the queue's counters account for all of them at push and pop, so
  ``len(queue)`` and :attr:`events_processed` are identical to pushing the
  steps one by one.  Only the engine's cohort execution creates these
  (:meth:`repro.sim.engine.Simulator._push_segment_steps`, which builds the
  record inline).
* :data:`EVENT_DELIVER_BATCH` — ``a`` is a list of ``(message, posted)``
  pairs that all arrive at the record's timestamp, ``b`` unused.  The same
  sequence/counter contract as :data:`EVENT_STEP_BATCH`: one record stands
  for ``len(a)`` consecutive :data:`EVENT_DELIVER` records.  Only the
  transport's burst send path creates these (a deterministic eager burst
  whose arrivals all coincide), through :meth:`EventQueue.push_deliver_batch`.

The engine's run loop inlines its own pop and peek (mirroring :meth:`pop` and
:meth:`peek_record`); the methods here serve everything off the hot path —
the parallel coordinator's barrier peeks, the transport's control traffic and
the tests.

Two structural fast paths keep the common cases cheap:

* a maintained *live counter* makes ``len(queue)`` / ``bool(queue)`` O(1)
  (they used to scan the whole heap for non-cancelled events);
* a *zero-delay fast lane*: events scheduled at exactly the timestamp
  currently being drained (immediate self-resumes such as waits on already
  completed requests) go to a FIFO deque instead of the O(log n) heap.
  Because the sequence counter is monotonic, appending to the lane preserves
  global ``(time, seq)`` order; :meth:`pop` simply takes the smaller of the
  two heads.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable

__all__ = [
    "EVENT_CALLBACK",
    "EVENT_STEP",
    "EVENT_DELIVER",
    "EVENT_STEP_BATCH",
    "EVENT_DELIVER_BATCH",
    "EV_TIME",
    "EV_SEQ",
    "EV_KIND",
    "EV_A",
    "EV_B",
    "EV_CANCELLED",
    "EV_POPPED",
    "EventQueue",
]

#: ``a`` is a zero-argument callable.
EVENT_CALLBACK = 0
#: ``a`` is the rank state, ``b`` the resume value.
EVENT_STEP = 1
#: ``a`` is the message, ``b`` the pre-matched posted receive (or None).
EVENT_DELIVER = 2
#: ``a`` is a list of compiled rank states stepping together, ``b`` unused.
EVENT_STEP_BATCH = 3
#: ``a`` is a list of ``(message, posted)`` pairs arriving together, ``b`` unused.
EVENT_DELIVER_BATCH = 4

#: Kinds whose ``a`` slot holds a list standing for ``len(a)`` events.
_BATCH_KINDS = (EVENT_STEP_BATCH, EVENT_DELIVER_BATCH)

#: Indices into an event record.
EV_TIME, EV_SEQ, EV_KIND, EV_A, EV_B, EV_CANCELLED, EV_POPPED = range(7)


class EventQueue:
    """A binary-heap event queue with typed records, batching and cancellation.

    Records compare as lists, so the heap orders them by ``(time, seq)`` with
    native C comparisons (``kind`` is an int tiebreaker that is never reached
    because sequence numbers are unique).
    """

    def __init__(self) -> None:
        self._heap: list[list] = []
        self._fast: deque[list] = deque()
        self._seq = 0
        self._live = 0
        self._popped = 0
        #: Timestamp of the most recently popped event (the drain point); new
        #: events at exactly this time take the fast lane.
        self._now = float("-inf")

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def events_processed(self) -> int:
        """Number of (non-cancelled) events popped so far."""
        return self._popped

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def push(self, time: float, callback: Callable[[], None]) -> list:
        """Schedule ``callback`` at absolute simulated ``time``.

        Returns the event record; pass it to :meth:`cancel` to revoke it.
        """
        return self.push_typed(time, EVENT_CALLBACK, callback)

    def push_typed(self, time: float, kind: int, a, b=None) -> list:
        """Schedule a typed event record at absolute simulated ``time``."""
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        seq = self._seq
        self._seq = seq + 1
        record = [time, seq, kind, a, b, False, False]
        self._live += 1
        fast = self._fast
        # Zero-delay fast lane: the record fires at the timestamp currently
        # being drained, so it sorts after every pending event at that time
        # (its seq is larger) and before everything later — append beats the
        # heap.  The tail check keeps the lane (time, seq)-sorted even under
        # out-of-order direct pushes.
        if time == self._now and (not fast or fast[-1][EV_TIME] == time):
            fast.append(record)
        else:
            heapq.heappush(self._heap, record)
        return record

    def push_deliver_batch(self, time: float, items: list) -> list:
        """Schedule one :data:`EVENT_DELIVER_BATCH` for ``len(items)`` arrivals.

        ``items`` holds ``(message, posted)`` pairs that all arrive at
        ``time``.  Equivalent to ``len(items)`` consecutive ``push_typed(time,
        EVENT_DELIVER, message, posted)`` calls: the sequence counter
        advances by the batch size (so every later push still sorts after the
        whole batch) and the live counter accounts for every item.  The
        record's ``seq`` is the first of the consumed block, which is exactly
        where the first individual record would have sorted.
        """
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        n = len(items)
        seq = self._seq
        self._seq = seq + n
        record = [time, seq, EVENT_DELIVER_BATCH, items, None, False, False]
        self._live += n
        fast = self._fast
        if time == self._now and (not fast or fast[-1][EV_TIME] == time):
            fast.append(record)
        else:
            heapq.heappush(self._heap, record)
        return record

    def cancel(self, record: list) -> None:
        """Mark a pending event so it will be skipped when reached."""
        if not record[EV_CANCELLED]:
            record[EV_CANCELLED] = True
            if not record[EV_POPPED]:
                if record[EV_KIND] in _BATCH_KINDS:
                    self._live -= len(record[EV_A])
                else:
                    self._live -= 1

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def pop(self) -> list | None:
        """Pop and return the next non-cancelled event record, or ``None``."""
        heap, fast = self._heap, self._fast
        while True:
            if fast:
                if heap and heap[0] < fast[0]:
                    record = heapq.heappop(heap)
                else:
                    record = fast.popleft()
            elif heap:
                record = heapq.heappop(heap)
            else:
                return None
            if record[EV_CANCELLED]:
                continue
            record[EV_POPPED] = True
            if record[EV_KIND] in _BATCH_KINDS:
                n = len(record[EV_A])
                self._live -= n
                self._popped += n
            else:
                self._live -= 1
                self._popped += 1
            self._now = record[EV_TIME]
            return record

    def peek_record(self) -> list | None:
        """Return the next non-cancelled event record without popping it."""
        heap, fast = self._heap, self._fast
        while heap and heap[0][EV_CANCELLED]:
            heapq.heappop(heap)
        while fast and fast[0][EV_CANCELLED]:
            fast.popleft()
        if fast:
            if heap and heap[0] < fast[0]:
                return heap[0]
            return fast[0]
        return heap[0] if heap else None

    def peek_time(self) -> float | None:
        """Return the timestamp of the next pending event without popping it."""
        record = self.peek_record()
        return record[EV_TIME] if record is not None else None

    def clear(self) -> None:
        """Drop all pending events."""
        self._heap.clear()
        self._fast.clear()
        self._live = 0
