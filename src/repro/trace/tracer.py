"""The two-level tracer.

The tracer is driven by the runtime transport through three hooks:

* :meth:`TwoLevelTracer.on_recv_posted` — a receive operation crossed the
  application/library boundary; this pins the receive's position in the
  *logical* stream (program order), even though its sender/size may only be
  known later (wildcard receives).
* :meth:`TwoLevelTracer.on_recv_matched` — the posted receive has been
  matched with an actual message, so its sender and size are now known and
  the logical record can be filled in.
* :meth:`TwoLevelTracer.on_message_arrival` — a data message physically
  arrived at a rank; this appends to the *physical* stream in arrival order.

Both streams therefore contain exactly the same multiset of messages for a
given rank (every message is posted-and-matched once and arrives once); what
differs is the order, which is precisely the paper's distinction between the
logical and physical communication levels (Figure 2).

Columnar architecture
---------------------
The hooks are the last per-message cost of a simulation, so the trace data
plane is columnar (structure-of-arrays, :mod:`repro.trace.columns`):

* Each :class:`ProcessTrace` holds one :class:`repro.trace.columns.TraceColumns`
  per level — typed ``array('q')``/``array('d')`` columns (bit-packed
  sender/tag/kind ``meta``, ``nbytes``, ``time``, ``seq``) that the hooks
  append plain scalars into through cached bound methods.  No tuple, record
  object, or other allocation happens per message; the physical stream's
  ``seq`` is its insertion order and is not even stored until finalize.
* :meth:`TwoLevelTracer.finalize` sorts every column set into canonical
  stream order with vectorised argsorts (no per-record key callables) and
  seals the tracer: hooks called after finalize raise ``RuntimeError``
  instead of silently corrupting the converted streams.
* Named :class:`repro.trace.records.TraceRecord` views are materialised
  lazily and only at the API boundary (indexing or iterating
  ``trace.logical`` / ``trace.physical``); the analysis layer reads whole
  columns as NumPy arrays instead (see :mod:`repro.trace.streams`).
"""

from __future__ import annotations

from repro.mpi.constants import KIND_COLLECTIVE
from repro.trace.columns import (
    META_FIELD_LIMIT,
    META_SENDER_SHIFT,
    META_TAG_SHIFT,
    TraceColumns,
    pack_meta,
)

__all__ = ["ProcessTrace", "TwoLevelTracer"]

#: Any bit at or above this position means (sender | tag) cannot be packed;
#: negative values also trip it (an arithmetic right shift of a negative int
#: is -1, which is truthy).  Derived from the columns module's field limit so
#: the hooks can never drift from the authoritative layout.
_META_GUARD_SHIFT = META_FIELD_LIMIT.bit_length() - 1


class ProcessTrace:
    """All trace data recorded for one rank.

    ``logical`` and ``physical`` are :class:`TraceColumns` — columnar stores
    that also behave as sequences of :class:`repro.trace.records.TraceRecord`
    (length, indexing, iteration, comparison against record lists), so
    record-list consumers keep working unchanged.
    """

    __slots__ = ("rank", "logical", "physical")

    def __init__(
        self,
        rank: int,
        logical: TraceColumns | None = None,
        physical: TraceColumns | None = None,
    ) -> None:
        self.rank = rank
        self.logical = TraceColumns(rank) if logical is None else logical
        # The physical stream's seq is its insertion order: implicit until
        # sort() materialises the sorted positions.
        self.physical = (
            TraceColumns(rank, explicit_seq=False) if physical is None else physical
        )

    def sort(self) -> None:
        """Sort both streams into their canonical orders.

        Logical records are ordered by posting sequence (program order);
        physical records by arrival time (exact-time ties broken by sender
        then tag, so the canonical stream is engine-independent — see
        :meth:`repro.trace.columns.TraceColumns.sort_by_arrival`).
        """
        self.logical.sort_by_seq()
        self.physical.sort_by_arrival()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProcessTrace(rank={self.rank}, logical={len(self.logical)}, "
            f"physical={len(self.physical)})"
        )


class TwoLevelTracer:
    """Records logical and physical receive streams for every rank.

    Parameters
    ----------
    nprocs:
        Number of ranks in the simulated job.

    Messages generated by collective algorithms are recorded on both levels,
    as in the paper (IS is almost entirely collective traffic).
    """

    def __init__(self, nprocs: int) -> None:
        if nprocs <= 0:
            raise ValueError(f"nprocs must be positive, got {nprocs}")
        self.nprocs = nprocs
        self._traces = [ProcessTrace(rank=r) for r in range(nprocs)]
        #: Per-rank map of req_id -> logical_seq for receives posted but not
        #: yet matched (a bare int: no per-message tuple allocation).
        self._pending: list[dict[int, int]] = [dict() for _ in range(nprocs)]
        self._logical_seq = [0] * nprocs
        self._finalized = False
        self._bind_column_appends()

    def _bind_column_appends(self) -> None:
        """Cache per-rank bound column appends for the per-message hooks."""
        self._logical_append = [
            (t.logical.meta.append, t.logical.nbytes.append,
             t.logical.time.append, t.logical.seq.append)
            for t in self._traces
        ]
        self._physical_append = [
            (t.physical.meta.append, t.physical.nbytes.append,
             t.physical.time.append)
            for t in self._traces
        ]

    # ------------------------------------------------------------------
    # Pickling: the bound-method append caches are not picklable (worker
    # processes ship finalized tracers back to the sharded experiment
    # runner), so they are dropped and rebuilt.
    # ------------------------------------------------------------------
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_logical_append"], state["_physical_append"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._bind_column_appends()

    # ------------------------------------------------------------------
    # Hooks called by the transport
    # ------------------------------------------------------------------
    # The hooks run once or twice per simulated message, so they append raw
    # scalars straight into the per-rank columns through the cached bound
    # methods — no per-message allocation at all.

    def on_recv_posted(self, rank: int, req_id: int, time: float) -> None:
        """A receive was posted by ``rank`` (program order position claimed)."""
        if self._finalized:
            raise RuntimeError(
                "tracer is finalized: no receives can be recorded after "
                "finalize() has converted and sorted the streams"
            )
        seq = self._logical_seq[rank]
        self._logical_seq[rank] = seq + 1
        self._pending[rank][req_id] = seq

    def on_recv_matched(
        self,
        rank: int,
        req_id: int,
        sender: int,
        nbytes: int,
        tag: int,
        kind: str,
        time: float,
    ) -> None:
        """The posted receive ``req_id`` matched a message; fill its record."""
        if self._finalized:
            raise RuntimeError(
                "tracer is finalized: no receives can be recorded after "
                "finalize() has converted and sorted the streams"
            )
        seq = self._pending[rank].pop(req_id, -1)
        if seq < 0:
            # A receive that was never announced (e.g. tracing was attached
            # late); fall back to appending at the end of the logical stream.
            seq = self._logical_seq[rank]
            self._logical_seq[rank] = seq + 1
        code = 1 if kind == KIND_COLLECTIVE else 0
        if (sender | tag) >> _META_GUARD_SHIFT:
            pack_meta(sender, tag, code)  # raises the detailed ValueError
        meta_append, nbytes_append, time_append, seq_append = self._logical_append[rank]
        meta_append((sender << META_SENDER_SHIFT) | (tag << META_TAG_SHIFT) | code)
        nbytes_append(nbytes)
        time_append(time)
        seq_append(seq)

    def on_message_arrival(
        self, rank: int, sender: int, nbytes: int, tag: int, kind: str, time: float
    ) -> None:
        """A data message physically arrived at ``rank``."""
        if self._finalized:
            raise RuntimeError(
                "tracer is finalized: no arrivals can be recorded after "
                "finalize() has converted and sorted the streams"
            )
        code = 1 if kind == KIND_COLLECTIVE else 0
        if (sender | tag) >> _META_GUARD_SHIFT:
            pack_meta(sender, tag, code)  # raises the detailed ValueError
        meta_append, nbytes_append, time_append = self._physical_append[rank]
        meta_append((sender << META_SENDER_SHIFT) | (tag << META_TAG_SHIFT) | code)
        nbytes_append(nbytes)
        time_append(time)

    # ------------------------------------------------------------------
    # Parallel-engine merge
    # ------------------------------------------------------------------
    def adopt_traces(
        self, traces: list[ProcessTrace], pending: dict[int, dict] | None = None
    ) -> None:
        """Substitute partition-produced per-rank traces (parallel engine).

        Each partition worker records its local ranks through its own forked
        tracer; the hooks fire in the same rank-local order they would in a
        single-process run, so the shipped :class:`ProcessTrace` replicas are
        column-identical to what this tracer would have recorded itself.
        ``pending`` optionally carries each rank's unmatched-receive map so
        :meth:`unmatched_receives` stays exact after the merge.
        """
        if self._finalized:
            raise RuntimeError("tracer is finalized: cannot adopt traces")
        for trace in traces:
            self._traces[trace.rank] = trace
        if pending:
            for rank, entries in pending.items():
                self._pending[rank] = dict(entries)
        self._bind_column_appends()

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Sort all traces into canonical order and seal the tracer
        (idempotent).  Hooks called afterwards raise ``RuntimeError``."""
        if self._finalized:
            return
        for trace in self._traces:
            trace.sort()
        self._finalized = True

    def trace_for(self, rank: int) -> ProcessTrace:
        """Return the :class:`ProcessTrace` of ``rank``."""
        if not (0 <= rank < self.nprocs):
            raise ValueError(f"rank must be in [0, {self.nprocs}), got {rank}")
        self.finalize()
        return self._traces[rank]

    @property
    def traces(self) -> list[ProcessTrace]:
        """All per-rank traces (finalized)."""
        self.finalize()
        return list(self._traces)

    def unmatched_receives(self, rank: int) -> int:
        """Number of receives posted but never matched (should be 0)."""
        return len(self._pending[rank])
