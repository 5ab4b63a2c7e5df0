"""Tests for stream extraction and summaries (repro.trace.streams)."""

from collections import Counter

import numpy as np
import pytest

from repro.trace.columns import TraceColumns
from repro.trace.records import TraceRecord
from repro.trace.streams import (
    StreamSummary,
    collective_count,
    p2p_count,
    sender_stream,
    size_stream,
    summarize_stream,
)


def record(sender=1, nbytes=100, kind="p2p", seq=0):
    return TraceRecord(
        receiver=0, sender=sender, nbytes=nbytes, tag=0, kind=kind, time=float(seq), seq=seq
    )


def _columns_from(records):
    """Build a columnar store holding the same records."""
    columns = TraceColumns(receiver=0)
    for r in records:
        columns.append(r.sender, r.nbytes, r.tag, r.kind, r.time, r.seq)
    return columns


def frequent_values(values, coverage):
    """Oracle: smallest set of most-frequent values covering ``coverage`` of the
    data, in ``Counter.most_common`` order (ties by first appearance)."""
    if not len(values):
        return ()
    counts = Counter(int(v) for v in values)
    total = sum(counts.values())
    chosen = []
    covered = 0
    for value, count in counts.most_common():
        chosen.append(value)
        covered += count
        if covered / total >= coverage:
            break
    return tuple(chosen)


def reference_summary(records, coverage=0.98):
    """Oracle: the Table-1 statistics of a record list, one record at a time."""
    senders = [r.sender for r in records]
    sizes = [r.nbytes for r in records]
    return StreamSummary(
        total_messages=len(records),
        p2p_messages=sum(1 for r in records if r.kind == "p2p"),
        collective_messages=sum(1 for r in records if r.kind == "collective"),
        num_distinct_senders=len(set(senders)),
        num_distinct_sizes=len(set(sizes)),
        frequent_senders=frequent_values(senders, coverage),
        frequent_sizes=frequent_values(sizes, coverage),
        coverage=coverage,
    )


RECORDS = [
    record(sender=1, nbytes=100, kind="p2p", seq=0),
    record(sender=2, nbytes=200, kind="p2p", seq=1),
    record(sender=1, nbytes=100, kind="collective", seq=2),
    record(sender=3, nbytes=300, kind="p2p", seq=3),
]
SAMPLE = _columns_from(RECORDS)


class TestStreamExtraction:
    def test_sender_stream(self):
        assert sender_stream(SAMPLE).tolist() == [1, 2, 1, 3]

    def test_size_stream(self):
        assert size_stream(SAMPLE).tolist() == [100, 200, 100, 300]

    def test_kind_filter(self):
        assert sender_stream(SAMPLE, kinds=["collective"]).tolist() == [1]
        assert size_stream(SAMPLE, kinds=["p2p"]).tolist() == [100, 200, 300]

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError, match="'p2pp'"):
            sender_stream(SAMPLE, kinds=["p2pp"])
        with pytest.raises(ValueError, match="'weird'"):
            size_stream(SAMPLE, kinds=["p2p", "weird"])

    def test_empty_input(self):
        empty = TraceColumns(receiver=0)
        assert sender_stream(empty).shape == (0,)
        assert sender_stream(empty).dtype == np.int64

    def test_counts(self):
        assert p2p_count(SAMPLE) == 3
        assert collective_count(SAMPLE) == 1


class TestSummarizeStream:
    def test_basic_summary(self):
        summary = summarize_stream(SAMPLE)
        assert summary.total_messages == 4
        assert summary.p2p_messages == 3
        assert summary.collective_messages == 1
        assert summary.num_distinct_senders == 3
        assert summary.num_distinct_sizes == 3

    def test_frequent_values_cover_requested_fraction(self):
        records = [record(sender=1, seq=i) for i in range(98)] + [
            record(sender=2, seq=98),
            record(sender=3, seq=99),
        ]
        summary = summarize_stream(_columns_from(records), coverage=0.95)
        assert summary.frequent_senders == (1,)
        assert summary.num_frequent_senders == 1

    def test_full_coverage_includes_everything(self):
        summary = summarize_stream(SAMPLE, coverage=1.0)
        assert summary.num_frequent_senders == 3
        assert summary.num_frequent_sizes == 3

    def test_empty_stream(self):
        summary = summarize_stream(TraceColumns(receiver=0))
        assert summary.total_messages == 0
        assert summary.frequent_senders == ()

    def test_invalid_coverage(self):
        with pytest.raises(ValueError):
            summarize_stream(SAMPLE, coverage=0.0)
        with pytest.raises(ValueError):
            summarize_stream(SAMPLE, coverage=1.5)

    def test_frequent_most_common_first(self):
        records = (
            [record(sender=5, seq=i) for i in range(5)]
            + [record(sender=7, seq=i + 5) for i in range(3)]
            + [record(sender=9, seq=8)]
        )
        summary = summarize_stream(_columns_from(records), coverage=1.0)
        assert summary.frequent_senders[0] == 5
        assert summary.frequent_senders[1] == 7


class TestColumnarFastPath:
    """The vectorised TraceColumns paths agree with per-record oracles."""

    def test_streams_match_record_path(self):
        assert sender_stream(SAMPLE).tolist() == [r.sender for r in RECORDS]
        assert size_stream(SAMPLE).tolist() == [r.nbytes for r in RECORDS]
        for kinds in (["p2p"], ["collective"], ["p2p", "collective"]):
            kept = [r for r in RECORDS if r.kind in kinds]
            assert sender_stream(SAMPLE, kinds=kinds).tolist() == [r.sender for r in kept]
            assert size_stream(SAMPLE, kinds=kinds).tolist() == [r.nbytes for r in kept]
        # A kind the store cannot hold is refused, not an empty stream.
        with pytest.raises(ValueError, match="'weird'"):
            sender_stream(SAMPLE, kinds=["weird"])
        with pytest.raises(ValueError, match="'weird'"):
            size_stream(SAMPLE, kinds=["weird"])

    def test_counts_match_record_path(self):
        assert p2p_count(SAMPLE) == sum(1 for r in RECORDS if r.kind == "p2p") == 3
        assert collective_count(SAMPLE) == sum(1 for r in RECORDS if r.kind == "collective") == 1

    def test_summary_matches_record_path(self):
        # A skewed stream so the frequent-value tie-breaking is exercised:
        # senders 4 and 6 have equal counts; first appearance must win.
        records = (
            [record(sender=2, nbytes=10, seq=i) for i in range(6)]
            + [record(sender=4, nbytes=20, seq=6)]
            + [record(sender=6, nbytes=30, kind="collective", seq=7)]
            + [record(sender=4, nbytes=20, seq=8)]
            + [record(sender=6, nbytes=10, seq=9)]
        )
        for coverage in (0.5, 0.75, 0.98, 1.0):
            fast = summarize_stream(_columns_from(records), coverage=coverage)
            slow = reference_summary(records, coverage=coverage)
            assert fast == slow

    def test_empty_columns(self):
        columns = TraceColumns(receiver=0)
        assert sender_stream(columns).tolist() == []
        assert summarize_stream(columns).total_messages == 0
        assert summarize_stream(columns).frequent_senders == ()
