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

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    [
        "records.TraceRecord",
        "columns.TraceColumns",
        "tracer.TwoLevelTracer",
        "io.save_traces",
        "io.save_traces_to",
        "io.load_traces",
        "io.load_traces_from",
        "tracer.ProcessTrace",
        "streams.sender_stream",
        "streams.size_stream",
        "streams.p2p_count",
        "streams.collective_count",
        "streams.summarize_stream",
        "streams.StreamSummary",
    ],
)
