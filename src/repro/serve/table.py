"""Memory-bounded per-stream predictor-state tables (LRU eviction).

A :class:`StreamTable` maps stream keys (canonicalised receiver ids) to
:class:`StreamEntry` objects, each owning one
:class:`repro.predictive.online.OnlineMessagePredictor` pinned to a single
receiver slot — the paper's predictor pair (sender stream + size stream):
about 1.4 KB fresh, about 10 KB at full history on a periodic stream.

The table enforces two optional caps, checked after every insertion and
every observation: ``max_streams`` resident streams and ``max_bytes`` of
summed size estimates.  Over a cap, the **least recently used** streams are
evicted (``evictions`` counts them, forever); observes *and*
stream-addressed queries refresh recency.  ``resident_bytes`` is the sum of
the entries' sizes: each predictor's ``nbytes``, a formula over the lengths
it keeps (:mod:`repro.predictive.state`), plus the table's own bookkeeping.
A size is computed where it is read: without ``max_bytes`` nothing reads it
on the observe path, so ``entry.nbytes`` and ``resident_bytes`` (``stats``)
compute it from the current predictor state; under ``max_bytes`` the
eviction check reads it after every observation, so
:meth:`StreamTable.note_observations` re-sizes the entry and keeps a running
total.  Eviction reads no clock or memory address, so it depends only on
the sequence of operations: a size is a function of predictor state, the
same in any process and before and after a snapshot round trip.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterator

from repro.predictive.online import OnlineMessagePredictor

__all__ = ["StreamEntry", "StreamTable"]


class StreamEntry:
    """One resident stream: a single-receiver predictor plus accounting."""

    __slots__ = ("predictor", "observations", "_charged")

    def __init__(self, predictor: OnlineMessagePredictor) -> None:
        self.predictor = predictor
        self.observations = 0
        #: The bytes a ``max_bytes`` table's running total holds for this entry.
        self._charged = 0

    @property
    def nbytes(self) -> int:
        """This stream's size: its predictor, plus what the table itself holds
        for it (the entry, its ordered-dict slot and a short key, ~208 B);
        :func:`repro.predictive.state.state_nbytes` is the predictor's ``nbytes``."""
        return 208 + self.predictor.nbytes


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
        unbounded; at least one stream always stays resident).  With it,
        every observation re-sizes its stream into a running total; without
        it, ``resident_bytes`` and ``entry.nbytes`` are computed when read.
    """

    def __init__(
        self,
        entry_factory: Callable[[], OnlineMessagePredictor],
        max_streams: int | None = None,
        max_bytes: int | None = None,
    ) -> None:
        if max_streams is not None and max_streams < 1:
            raise ValueError(f"max_streams must be >= 1, got {max_streams}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self._entry_factory = entry_factory
        self.max_streams = max_streams
        self.max_bytes = max_bytes
        self._entries: OrderedDict[str, StreamEntry] = OrderedDict()
        #: Total streams ever evicted (monotone).
        self.evictions = 0
        #: Total streams ever created (monotone).
        self.streams_created = 0
        self._charged_bytes = 0  # the entries' ``_charged`` summed (0 without max_bytes)

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

    @property
    def resident_bytes(self) -> int:
        """Summed resident-size estimate of all resident entries."""
        if self.max_bytes is not None:
            return self._charged_bytes
        return sum(entry.nbytes for entry in self._entries.values())

    # ------------------------------------------------------------------
    def get(self, key: str, create: bool = False) -> StreamEntry | None:
        """Look up (and touch) a stream; optionally create a cold-miss entry.

        A hit moves the stream to the hot end of the LRU order.  A miss with
        ``create=True`` builds fresh predictor state, accounts its size and
        evicts cold streams if a cap is now exceeded.
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
        self._charge(entry)
        self._evict_over_caps()
        return entry

    def note_observations(self, entry: StreamEntry, count: int) -> None:
        """Record ``count`` observations against ``entry``; under ``max_bytes``,
        re-size it and evict over the caps."""
        entry.observations += count
        if self.max_bytes is not None:  # no stream was added: only bytes can be over
            self._charge(entry)
            self._evict_over_caps()

    def insert_restored(self, key: str, entry: StreamEntry) -> None:
        """Insert a snapshot-restored entry at the hot end (accounted)."""
        if key in self._entries:
            self._release(self._entries.pop(key))
        self._entries[key] = entry
        self._charge(entry)
        self._evict_over_caps()

    def pop_coldest(self) -> tuple[str, StreamEntry] | None:
        """Evict and return the least recently used stream (None if empty)."""
        if not self._entries:
            return None
        key, entry = self._entries.popitem(last=False)
        self._release(entry)
        self.evictions += 1
        return key, entry

    def _charge(self, entry: StreamEntry) -> None:
        """Under ``max_bytes``, move ``entry``'s share of the running total to its current size."""
        if self.max_bytes is not None:
            nbytes = entry.nbytes
            self._charged_bytes += nbytes - entry._charged
            entry._charged = nbytes

    def _release(self, entry: StreamEntry) -> None:
        self._charged_bytes -= entry._charged
        entry._charged = 0

    def _evict_over_caps(self) -> None:
        if self.max_streams is not None:
            while len(self._entries) > self.max_streams:
                self.pop_coldest()
        if self.max_bytes is not None:
            while len(self._entries) > 1 and self._charged_bytes > self.max_bytes:
                self.pop_coldest()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-able table counters."""
        streams = len(self._entries)
        resident = self.resident_bytes
        return {
            "streams": streams,
            "streams_created": self.streams_created,
            "evictions": self.evictions,
            "resident_bytes": resident,
            "resident_bytes_per_stream": resident // streams if streams else 0,
            "max_streams": self.max_streams,
            "max_bytes": self.max_bytes,
        }
