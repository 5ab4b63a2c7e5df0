"""Property-based tests (hypothesis) for the columnar trace store.

The contract under test: a :class:`repro.trace.columns.TraceColumns` store
must be observationally identical to the plain record list it replaces —
after any append sequence and after sorting — and the vectorised stream
summaries must match the per-record reference implementation bit for bit
(including the tie-breaking order of the frequent-value lists).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.columns import TraceColumns
from repro.trace.records import TraceRecord
from repro.trace.streams import sender_stream, size_stream, summarize_stream
from repro.trace.tracer import ProcessTrace
from test_trace_streams import reference_summary

record_tuples = st.tuples(
    st.integers(min_value=0, max_value=40),        # sender
    st.integers(min_value=0, max_value=1 << 20),   # nbytes
    st.integers(min_value=0, max_value=1 << 22),   # tag (collective range)
    st.sampled_from(["p2p", "collective"]),        # kind
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False, width=64),  # time
)


def _as_records(tuples, receiver=0):
    return [
        TraceRecord(receiver, sender, nbytes, tag, kind, time, seq)
        for seq, (sender, nbytes, tag, kind, time) in enumerate(tuples)
    ]


class TestColumnsAgreeWithRecordLists:
    @given(data=st.lists(record_tuples, max_size=80))
    @settings(max_examples=60)
    def test_views_and_sort_match_reference(self, data):
        """Columnar views == record lists, before and after sort()."""
        trace = ProcessTrace(rank=0)
        reference_logical = _as_records(data)
        for record in reference_logical:
            trace.logical.append(
                record.sender, record.nbytes, record.tag, record.kind,
                record.time, record.seq,
            )
            trace.physical.append(
                record.sender, record.nbytes, record.tag, record.kind, record.time
            )
        assert list(trace.logical) == reference_logical

        trace.sort()
        reference_logical.sort(key=lambda r: r.seq)
        # Physical order is canonical: (time, sender, tag, kind, nbytes),
        # with seq re-materialised as the canonical position — engine- and
        # insertion-order-independent (see TraceColumns.sort_by_arrival).
        reference_physical = [
            record._replace(seq=position)
            for position, record in enumerate(
                sorted(
                    reference_logical,
                    key=lambda r: (
                        r.time, r.sender, r.tag, r.kind == "collective", r.nbytes
                    ),
                )
            )
        ]
        assert list(trace.logical) == reference_logical
        assert list(trace.physical) == reference_physical
        assert trace.logical == reference_logical  # sequence equality protocol

    @given(data=st.lists(record_tuples, max_size=80))
    @settings(max_examples=60)
    def test_streams_match_reference(self, data):
        """Vectorised streams/summaries == per-record reference paths."""
        records = _as_records(data)
        columns = TraceColumns(receiver=0)
        for record in records:
            columns.append(
                record.sender, record.nbytes, record.tag, record.kind,
                record.time, record.seq,
            )
        for kinds in (None, ["p2p"], ["collective"]):
            kept = [r for r in records if kinds is None or r.kind in kinds]
            assert sender_stream(columns, kinds=kinds).tolist() == [r.sender for r in kept]
            assert size_stream(columns, kinds=kinds).tolist() == [r.nbytes for r in kept]
        for coverage in (0.4, 0.98, 1.0):
            assert summarize_stream(columns, coverage=coverage) == reference_summary(
                records, coverage=coverage
            )
