"""Stream extraction and per-process summary statistics.

The predictor (and the paper's Table 1) works on two integer streams per
receiving process:

* the **sender stream**: the sequence of source ranks of received messages;
* the **size stream**: the sequence of message sizes.

These helpers turn a trace level — a columnar
:class:`repro.trace.columns.TraceColumns` store (``trace.logical`` /
``trace.physical``) — into NumPy arrays and compute the Table-1 statistics
(message counts by kind, number of distinct senders and sizes, dominant
values), vectorised over whole columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro._numpy import np
from repro.mpi.constants import KIND_COLLECTIVE, KIND_P2P
from repro.trace.columns import KIND_CODES, TraceColumns

__all__ = [
    "sender_stream",
    "size_stream",
    "p2p_count",
    "collective_count",
    "summarize_stream",
    "StreamSummary",
]


def _kind_mask(columns: TraceColumns, kinds: Sequence[str] | None) -> np.ndarray | None:
    """Boolean selection mask for ``kinds`` (None = keep everything)."""
    if kinds is None:
        return None
    unknown = [kind for kind in kinds if kind not in KIND_CODES]
    if unknown:
        raise ValueError(
            f"unknown message kind {unknown[0]!r}; expected one of {sorted(KIND_CODES)}"
        )
    codes = {KIND_CODES[kind] for kind in kinds}
    if len(codes) == len(KIND_CODES):
        return None
    return np.isin(columns.kind_code_array(), list(codes))


def sender_stream(columns: TraceColumns, kinds: Sequence[str] | None = None) -> np.ndarray:
    """Return the sequence of sender ranks as an int64 array."""
    senders = columns.sender_array()
    mask = _kind_mask(columns, kinds)
    return senders if mask is None else senders[mask]


def size_stream(columns: TraceColumns, kinds: Sequence[str] | None = None) -> np.ndarray:
    """Return the sequence of message sizes (bytes) as an int64 array."""
    sizes = columns.size_array()
    mask = _kind_mask(columns, kinds)
    return sizes if mask is None else sizes[mask]


def p2p_count(columns: TraceColumns) -> int:
    """Number of point-to-point messages in the trace."""
    return int(np.count_nonzero(columns.kind_code_array() == KIND_CODES[KIND_P2P]))


def collective_count(columns: TraceColumns) -> int:
    """Number of collective-generated messages in the trace."""
    return int(np.count_nonzero(columns.kind_code_array() == KIND_CODES[KIND_COLLECTIVE]))


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


def _frequent_values_array(values: np.ndarray, coverage: float) -> tuple[int, ...]:
    """Smallest set of most-frequent values covering ``coverage`` of the data.

    Most frequent first; equal counts are ordered by the index of each
    value's first occurrence (the order ``Counter.most_common`` gives).
    """
    if not values.size:
        return ()
    unique, first_index, counts = np.unique(values, return_index=True, return_counts=True)
    order = np.lexsort((first_index, -counts))
    covered = np.cumsum(counts[order])
    total = int(covered[-1])
    stop = int(np.argmax(covered / total >= coverage)) + 1
    return tuple(int(v) for v in unique[order][:stop])


def summarize_stream(columns: TraceColumns, coverage: float = 0.98) -> StreamSummary:
    """Compute Table-1 statistics for one process' received-message trace."""
    if not (0.0 < coverage <= 1.0):
        raise ValueError(f"coverage must be in (0, 1], got {coverage}")
    senders = columns.sender_array()
    sizes = columns.size_array()
    kind_codes = columns.kind_code_array()
    return StreamSummary(
        total_messages=len(kind_codes),
        p2p_messages=int(np.count_nonzero(kind_codes == KIND_CODES[KIND_P2P])),
        collective_messages=int(np.count_nonzero(kind_codes == KIND_CODES[KIND_COLLECTIVE])),
        num_distinct_senders=int(np.unique(senders).size),
        num_distinct_sizes=int(np.unique(sizes).size),
        frequent_senders=_frequent_values_array(senders, coverage),
        frequent_sizes=_frequent_values_array(sizes, coverage),
        coverage=coverage,
    )
