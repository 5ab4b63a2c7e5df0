"""Stream extraction and per-process summary statistics.

The predictor (and the paper's Table 1) works on two integer streams per
receiving process:

* the **sender stream**: the sequence of source ranks of received messages;
* the **size stream**: the sequence of message sizes.

These helpers turn a trace level into NumPy arrays and compute the Table-1
statistics (message counts by kind, number of distinct senders and sizes,
dominant values).  Every function accepts either a columnar
:class:`repro.trace.columns.TraceColumns` store (``trace.logical`` /
``trace.physical`` — the fast path, vectorised over whole columns) or any
iterable of :class:`repro.trace.records.TraceRecord` (the legacy per-record
path, kept for hand-built record lists); both paths produce identical
results, down to the tie-breaking order of the frequent-value lists.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro._numpy import np
from repro.mpi.constants import KIND_COLLECTIVE, KIND_P2P
from repro.trace.columns import KIND_CODES, TraceColumns
from repro.trace.records import TraceRecord

__all__ = [
    "sender_stream",
    "size_stream",
    "p2p_count",
    "collective_count",
    "summarize_stream",
    "StreamSummary",
]


def _filtered(records: Iterable[TraceRecord], kinds: Sequence[str] | None) -> list[TraceRecord]:
    if kinds is None:
        return list(records)
    allowed = set(kinds)
    return [r for r in records if r.kind in allowed]


def _kind_mask(columns: TraceColumns, kinds: Sequence[str] | None) -> np.ndarray | None:
    """Boolean selection mask for ``kinds`` (None = keep everything)."""
    if kinds is None:
        return None
    codes = sorted({KIND_CODES[k] for k in kinds if k in KIND_CODES})
    kind_codes = columns.kind_code_array()
    if not codes:
        return np.zeros(len(kind_codes), dtype=bool)
    if len(codes) == len(KIND_CODES):
        return None
    if len(codes) == 1:
        return kind_codes == codes[0]
    return np.isin(kind_codes, codes)


def sender_stream(
    records: Iterable[TraceRecord] | TraceColumns, kinds: Sequence[str] | None = None
) -> np.ndarray:
    """Return the sequence of sender ranks as an int64 array."""
    if isinstance(records, TraceColumns):
        senders = records.sender_array()
        mask = _kind_mask(records, kinds)
        return senders if mask is None else senders[mask]
    return np.array([r.sender for r in _filtered(records, kinds)], dtype=np.int64)


def size_stream(
    records: Iterable[TraceRecord] | TraceColumns, kinds: Sequence[str] | None = None
) -> np.ndarray:
    """Return the sequence of message sizes (bytes) as an int64 array."""
    if isinstance(records, TraceColumns):
        sizes = records.size_array()
        mask = _kind_mask(records, kinds)
        return sizes if mask is None else sizes[mask]
    return np.array([r.nbytes for r in _filtered(records, kinds)], dtype=np.int64)


def p2p_count(records: Iterable[TraceRecord] | TraceColumns) -> int:
    """Number of point-to-point messages in the trace."""
    if isinstance(records, TraceColumns):
        return int(np.count_nonzero(records.kind_code_array() == KIND_CODES[KIND_P2P]))
    return sum(1 for r in records if r.kind == KIND_P2P)


def collective_count(records: Iterable[TraceRecord] | TraceColumns) -> int:
    """Number of collective-generated messages in the trace."""
    if isinstance(records, TraceColumns):
        return int(
            np.count_nonzero(records.kind_code_array() == KIND_CODES[KIND_COLLECTIVE])
        )
    return sum(1 for r in records if r.kind == KIND_COLLECTIVE)


@dataclass(frozen=True)
class StreamSummary:
    """Table-1 style statistics of one receiving process' message stream.

    Attributes
    ----------
    total_messages:
        Total number of received messages (p2p + collective).
    p2p_messages / collective_messages:
        Counts by message kind.
    num_distinct_senders / num_distinct_sizes:
        Number of distinct values appearing in the sender / size streams.
    frequent_senders / frequent_sizes:
        Distinct values covering at least ``coverage`` of the stream, most
        frequent first.  The paper's Table 1 footnote says it reports "the
        number of the frequently appearing sender and message sizes", so the
        analysis layer reports both the raw distinct counts and these
        coverage-filtered counts.
    coverage:
        The coverage threshold used for the frequent-value lists.
    """

    total_messages: int
    p2p_messages: int
    collective_messages: int
    num_distinct_senders: int
    num_distinct_sizes: int
    frequent_senders: tuple[int, ...]
    frequent_sizes: tuple[int, ...]
    coverage: float

    @property
    def num_frequent_senders(self) -> int:
        """Number of senders needed to cover ``coverage`` of the stream."""
        return len(self.frequent_senders)

    @property
    def num_frequent_sizes(self) -> int:
        """Number of sizes needed to cover ``coverage`` of the stream."""
        return len(self.frequent_sizes)


def _frequent_values(values: Sequence[int], coverage: float) -> tuple[int, ...]:
    """Smallest set of most-frequent values covering ``coverage`` of the data."""
    if not len(values):
        return ()
    counts = Counter(int(v) for v in values)
    total = sum(counts.values())
    chosen: list[int] = []
    covered = 0
    for value, count in counts.most_common():
        chosen.append(value)
        covered += count
        if covered / total >= coverage:
            break
    return tuple(chosen)


def _frequent_values_array(values: np.ndarray, coverage: float) -> tuple[int, ...]:
    """Vectorised :func:`_frequent_values` with identical tie-breaking.

    ``Counter.most_common`` orders equal counts by first appearance (stable
    sort over insertion order), so ties here are broken by the index of each
    value's first occurrence.
    """
    if not values.size:
        return ()
    unique, first_index, counts = np.unique(values, return_index=True, return_counts=True)
    order = np.lexsort((first_index, -counts))
    covered = np.cumsum(counts[order])
    total = int(covered[-1])
    stop = int(np.argmax(covered / total >= coverage)) + 1
    return tuple(int(v) for v in unique[order][:stop])


def summarize_stream(
    records: Sequence[TraceRecord] | TraceColumns, coverage: float = 0.98
) -> StreamSummary:
    """Compute Table-1 statistics for one process' received-message trace."""
    if not (0.0 < coverage <= 1.0):
        raise ValueError(f"coverage must be in (0, 1], got {coverage}")
    if isinstance(records, TraceColumns):
        senders = records.sender_array()
        sizes = records.size_array()
        kind_codes = records.kind_code_array()
        p2p = int(np.count_nonzero(kind_codes == KIND_CODES[KIND_P2P]))
        return StreamSummary(
            total_messages=len(kind_codes),
            p2p_messages=p2p,
            collective_messages=int(
                np.count_nonzero(kind_codes == KIND_CODES[KIND_COLLECTIVE])
            ),
            num_distinct_senders=int(np.unique(senders).size),
            num_distinct_sizes=int(np.unique(sizes).size),
            frequent_senders=_frequent_values_array(senders, coverage),
            frequent_sizes=_frequent_values_array(sizes, coverage),
            coverage=coverage,
        )
    records = list(records)
    senders = [r.sender for r in records]
    sizes = [r.nbytes for r in records]
    return StreamSummary(
        total_messages=len(records),
        p2p_messages=p2p_count(records),
        collective_messages=collective_count(records),
        num_distinct_senders=len(set(senders)),
        num_distinct_sizes=len(set(sizes)),
        frequent_senders=_frequent_values(senders, coverage),
        frequent_sizes=_frequent_values(sizes, coverage),
        coverage=coverage,
    )
