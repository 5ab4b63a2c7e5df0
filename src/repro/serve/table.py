"""Memory-bounded per-stream predictor-state tables (LRU eviction).

A :class:`StreamTable` maps stream keys (canonicalised receiver ids) to
:class:`StreamEntry` objects, each owning one
:class:`repro.predictive.online.OnlineMessagePredictor` pinned to a single
receiver slot — the per-stream state is exactly the paper's predictor pair
(sender stream + size stream): 2,977 B fresh, about 10 KB at full history on
a periodic stream (history arrays, occurrence masks and bit-planes; see
:mod:`repro.predictive.state`).

Memory bounding
---------------
The table enforces two optional caps, checked after every insertion and
size refresh:

* ``max_streams`` — hard cap on resident streams;
* ``max_bytes`` — cap on the summed resident-size estimate of all entries.

When over a cap, the **least recently used** streams are evicted (the
``evictions`` counter records how many, forever).  Recency is updated by
observes *and* stream-addressed queries — a stream that is still being
asked about is not cold.  Eviction never reads clocks or memory addresses:
under ``max_streams`` it depends only on the sequence of operations applied
to the table; under ``max_bytes`` it also depends on the resident-size
estimates, which are *almost* a function of the predictor configuration —
:func:`repro.predictive.state.state_nbytes` reads a few hundred bytes more
for the first couple of dozen predictors a process builds (see its
docstring), so the same operations can evict one stream earlier in a fresh
process than in a long-lived one.

Resident-bytes accounting
-------------------------
``resident_bytes`` is the sum of the per-entry estimates.  An entry's
estimate is set on creation and refreshed every ``refresh_interval``
observations (predictor state grows with the history until it is full and
then cycles as the history is trimmed, within a few KB on periodic streams;
the interval bounds the accounting overhead on the ingest hot path while
keeping drift small).

Every fresh stream of a table has the same object graph, so creation does
not walk it (the walk costs 4x building the predictor pair): the table
measures fresh entries until two consecutive ones agree and gives every
later one that number.  Waiting for agreement is what keeps the
first-instances surcharge above out of the memo — the surcharge strictly
decreases until it is gone, so two equal readings are both the settled
value, and every entry records exactly what a walk of it would return.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterator

from repro.predictive.online import OnlineMessagePredictor
from repro.predictive.state import state_nbytes

__all__ = ["StreamEntry", "StreamTable"]

#: Default number of observations between resident-size refreshes.
DEFAULT_REFRESH_INTERVAL = 64


class StreamEntry:
    """One resident stream: a single-receiver predictor plus accounting."""

    __slots__ = ("predictor", "observations", "nbytes", "_stale_observes")

    def __init__(self, predictor: OnlineMessagePredictor) -> None:
        self.predictor = predictor
        self.observations = 0
        self.nbytes = 0
        self._stale_observes = 0

    def refresh_nbytes(self) -> int:
        """Recompute the resident-size estimate; returns the delta."""
        fresh = state_nbytes(self.predictor)
        delta = fresh - self.nbytes
        self.nbytes = fresh
        self._stale_observes = 0
        return delta


class StreamTable:
    """LRU table of stream keys → predictor state, memory bounded.

    Parameters
    ----------
    entry_factory:
        Zero-argument factory of fresh per-stream predictors
        (``OnlineMessagePredictor`` pinned to one receiver slot).
    max_streams:
        Evict down to this many resident streams (None = unbounded).
    max_bytes:
        Evict while the resident-size estimate exceeds this (None =
        unbounded; at least one stream always stays resident).
    refresh_interval:
        Observations between per-entry resident-size refreshes.
    """

    def __init__(
        self,
        entry_factory: Callable[[], OnlineMessagePredictor],
        max_streams: int | None = None,
        max_bytes: int | None = None,
        refresh_interval: int = DEFAULT_REFRESH_INTERVAL,
    ) -> None:
        if max_streams is not None and max_streams < 1:
            raise ValueError(f"max_streams must be >= 1, got {max_streams}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if refresh_interval < 1:
            raise ValueError(f"refresh_interval must be >= 1, got {refresh_interval}")
        self._entry_factory = entry_factory
        self.max_streams = max_streams
        self.max_bytes = max_bytes
        self.refresh_interval = int(refresh_interval)
        self._entries: OrderedDict[str, StreamEntry] = OrderedDict()
        #: Total streams ever evicted (monotone).
        self.evictions = 0
        #: Total streams ever created (monotone).
        self.streams_created = 0
        #: Summed resident-size estimate of all resident entries.
        self.resident_bytes = 0
        # Size of the last fresh entry walked, and whether the one before it
        # read the same (from then on creates reuse it instead of walking).
        self._fresh_nbytes = 0
        self._fresh_settled = False

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def keys(self) -> Iterator[str]:
        """Resident keys in LRU order (coldest first)."""
        return iter(self._entries)

    def items(self) -> Iterator[tuple[str, StreamEntry]]:
        """Resident ``(key, entry)`` pairs in LRU order (coldest first)."""
        return iter(self._entries.items())

    # ------------------------------------------------------------------
    def get(self, key: str, create: bool = False) -> StreamEntry | None:
        """Look up (and touch) a stream; optionally create a cold-miss entry.

        A hit moves the stream to the hot end of the LRU order.  A miss with
        ``create=True`` builds fresh predictor state, accounts its size (see
        the module docstring: walked only until the table has seen two fresh
        entries agree), and evicts cold streams if a cap is now exceeded.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        if not create:
            return None
        entry = StreamEntry(self._entry_factory())
        self._entries[key] = entry
        self.streams_created += 1
        if self._fresh_settled:
            entry.nbytes = self._fresh_nbytes
        else:
            entry.refresh_nbytes()
            self._fresh_settled = entry.nbytes == self._fresh_nbytes
            self._fresh_nbytes = entry.nbytes
        self.resident_bytes += entry.nbytes
        self._evict_over_caps()
        return entry

    def note_observations(self, entry: StreamEntry, count: int) -> None:
        """Record ``count`` observations against ``entry`` (size upkeep)."""
        entry.observations += count
        entry._stale_observes += count
        if entry._stale_observes >= self.refresh_interval:
            self.resident_bytes += entry.refresh_nbytes()
            self._evict_over_caps()

    def insert_restored(self, key: str, entry: StreamEntry) -> None:
        """Insert a snapshot-restored entry at the hot end (accounted)."""
        if key in self._entries:
            old = self._entries.pop(key)
            self.resident_bytes -= old.nbytes
        self._entries[key] = entry
        self.resident_bytes += entry.nbytes
        self._evict_over_caps()

    def pop_coldest(self) -> tuple[str, StreamEntry] | None:
        """Evict and return the least recently used stream (None if empty)."""
        if not self._entries:
            return None
        key, entry = self._entries.popitem(last=False)
        self.resident_bytes -= entry.nbytes
        self.evictions += 1
        return key, entry

    def _evict_over_caps(self) -> None:
        if self.max_streams is not None:
            while len(self._entries) > self.max_streams:
                self.pop_coldest()
        if self.max_bytes is not None:
            while len(self._entries) > 1 and self.resident_bytes > self.max_bytes:
                self.pop_coldest()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-able table counters."""
        streams = len(self._entries)
        return {
            "streams": streams,
            "streams_created": self.streams_created,
            "evictions": self.evictions,
            "resident_bytes": self.resident_bytes,
            "resident_bytes_per_stream": (
                self.resident_bytes // streams if streams else 0
            ),
            "max_streams": self.max_streams,
            "max_bytes": self.max_bytes,
        }
