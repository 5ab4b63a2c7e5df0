"""Two-level message tracing (the paper's Section 3.1 instrumentation).

The paper instruments MPICH at two levels:

* the **logical** level — MPI calls as they cross from the application into
  the top of the library; the stream order reflects program structure, and
* the **physical** level — messages as they actually arrive at the bottom of
  the library; the stream order additionally reflects network timing noise.

:class:`repro.trace.tracer.TwoLevelTracer` reproduces both.  Trace data is
stored columnar (:mod:`repro.trace.columns`): the transport hooks append
scalars into typed per-rank column arrays, and named
:class:`repro.trace.records.TraceRecord` views are materialised lazily at
the API boundary.  Analysis code extracts per-process sender and
message-size streams as whole NumPy columns via :mod:`repro.trace.streams`.

Traces persist as the version-2 columnar JSON-lines format (one object per
rank) — see ``docs/formats.md`` for the on-disk specification.  Besides the
path-based :func:`save_traces`/:func:`load_traces`, the handle-based
:func:`save_traces_to`/:func:`load_traces_from` are exported for callers
that stream traces through sockets, pipes or in-memory buffers.
"""

from repro.trace.columns import TraceColumns
from repro.trace.io import load_traces, load_traces_from, save_traces, save_traces_to
from repro.trace.records import TraceRecord
from repro.trace.streams import (
    StreamSummary,
    collective_count,
    p2p_count,
    sender_stream,
    size_stream,
    summarize_stream,
)
from repro.trace.tracer import ProcessTrace, TwoLevelTracer

__all__ = [
    "TraceRecord",
    "TraceColumns",
    "TwoLevelTracer",
    "save_traces",
    "save_traces_to",
    "load_traces",
    "load_traces_from",
    "ProcessTrace",
    "sender_stream",
    "size_stream",
    "p2p_count",
    "collective_count",
    "summarize_stream",
    "StreamSummary",
]
