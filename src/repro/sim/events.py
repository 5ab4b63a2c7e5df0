"""Deterministic typed event queue for the discrete-event simulator.

Events are ordered by ``(time, sequence)`` where the sequence number is the
insertion order; this makes simulations fully deterministic even when many
events share a timestamp (common at t=0 when every rank starts).

The queue is the innermost loop of every simulation, so events are stored as
flat *typed records* — plain lists indexed by the ``EV_*`` constants — rather
than objects with per-event closures:

``[time, seq, kind, a, b]``

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

The queue is one binary heap and two counters: ``len(queue)`` is events
pushed (:attr:`EventQueue._seq`) minus events popped.  The sequence counter
is monotone, so a push at the timestamp being drained sorts after every
pending record at that time and before everything later, and the batch
records keep wide same-timestamp runs to a handful of heap entries.
"""

from __future__ import annotations

import heapq
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
EV_TIME, EV_SEQ, EV_KIND, EV_A, EV_B = range(5)


class EventQueue:
    """A binary-heap event queue with typed records and batching.

    Records compare as lists, so the heap orders them by ``(time, seq)`` with
    native C comparisons (``kind`` is an int tiebreaker that is never reached
    because sequence numbers are unique).
    """

    def __init__(self) -> None:
        self._heap: list[list] = []
        #: Events pushed / popped so far, batch records counted per member.
        self._seq = 0
        self._popped = 0

    def __len__(self) -> int:
        return self._seq - self._popped

    def __bool__(self) -> bool:
        return self._seq > self._popped

    @property
    def events_processed(self) -> int:
        """Number of events popped so far (batch members counted one each)."""
        return self._popped

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def push(self, time: float, callback: Callable[[], None]) -> list:
        """Schedule ``callback`` at absolute simulated ``time``."""
        return self.push_typed(time, EVENT_CALLBACK, callback)

    def push_typed(self, time: float, kind: int, a, b=None) -> list:
        """Schedule a typed event record at absolute simulated ``time``."""
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        seq = self._seq
        self._seq = seq + 1
        record = [time, seq, kind, a, b]
        heapq.heappush(self._heap, record)
        return record

    def push_deliver_batch(self, time: float, items: list) -> list:
        """Schedule one :data:`EVENT_DELIVER_BATCH` for ``len(items)`` arrivals.

        ``items`` holds ``(message, posted)`` pairs that all arrive at
        ``time``.  Equivalent to ``len(items)`` consecutive ``push_typed(time,
        EVENT_DELIVER, message, posted)`` calls: the sequence counter
        advances by the batch size, so every later push still sorts after the
        whole batch and ``len(queue)`` accounts for every item.  The
        record's ``seq`` is the first of the consumed block, which is exactly
        where the first individual record would have sorted.
        """
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        seq = self._seq
        self._seq = seq + len(items)
        record = [time, seq, EVENT_DELIVER_BATCH, items, None]
        heapq.heappush(self._heap, record)
        return record

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def pop(self) -> list | None:
        """Pop and return the next event record, or ``None`` when empty."""
        if not self._heap:
            return None
        record = heapq.heappop(self._heap)
        if record[EV_KIND] in _BATCH_KINDS:
            self._popped += len(record[EV_A])
        else:
            self._popped += 1
        return record

    def peek_record(self) -> list | None:
        """Return the next event record without popping it."""
        return self._heap[0] if self._heap else None

    def peek_time(self) -> float | None:
        """Return the timestamp of the next pending event without popping it."""
        return self._heap[0][EV_TIME] if self._heap else None
