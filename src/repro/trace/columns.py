"""Columnar (structure-of-arrays) storage for trace records.

The tracer hooks run once or twice per simulated message; building a Python
object (or even a tuple) per record is the last per-message allocation on the
simulation hot path.  :class:`TraceColumns` therefore stores one trace level
of one rank as typed flat columns from the stdlib :mod:`array` module:

``meta``   ``array('q')``  sender, tag and kind-code bit-packed into one int64
``nbytes`` ``array('q')``  payload size in bytes
``time``   ``array('d')``  record timestamp (completion or arrival time)
``seq``    ``array('q')``  stream position, or ``None`` while it is implicit

Packing ``(sender, tag, kind)`` into the single ``meta`` column keeps the
hot-path append count low; both fields are bounded well below 2**31 in any
realistic run (ranks are process counts, tags grow by
:data:`repro.mpi.collectives.TAG_STRIDE` per collective) and the bound is
enforced at append time.  The physical stream's ``seq`` is its insertion
order, so it is not stored at all until :meth:`sort_by_arrival` materialises
the sorted positions.

Consumers read whole columns as NumPy arrays (``sender_array`` and friends)
and the analysis layer operates on those vectors; individual
:class:`repro.trace.records.TraceRecord` views are materialised lazily, only
when someone actually indexes or iterates the column store (the sequence
API keeps legacy record-list consumers working unchanged).
"""

from __future__ import annotations

from array import array
from typing import Iterator, Sequence

from repro._numpy import np
from repro.mpi.constants import KIND_COLLECTIVE, KIND_P2P
from repro.trace.records import TraceRecord

__all__ = ["KIND_CODES", "KIND_NAMES", "TraceColumns", "pack_meta"]

#: Kind-code column encoding: ``"p2p"`` -> 0, ``"collective"`` -> 1.
KIND_CODES: dict[str, int] = {KIND_P2P: 0, KIND_COLLECTIVE: 1}

#: Inverse of :data:`KIND_CODES`, indexed by code.
KIND_NAMES: tuple[str, str] = (KIND_P2P, KIND_COLLECTIVE)

#: Bit layout of the ``meta`` column: ``sender << 32 | tag << 1 | kind``.
META_SENDER_SHIFT = 32
META_TAG_SHIFT = 1
META_KIND_MASK = 1
#: ``sender`` and ``tag`` must both fit in 31 bits for the packed layout.
META_FIELD_LIMIT = 1 << 31
_TAG_MASK = META_FIELD_LIMIT - 1


def pack_meta(sender: int, tag: int, kind_code: int) -> int:
    """Pack ``(sender, tag, kind_code)`` into one meta-column int64."""
    if (sender | tag) >> 31 or sender < 0 or tag < 0:
        raise ValueError(
            f"sender={sender} tag={tag} outside the packed meta-column range "
            f"[0, {META_FIELD_LIMIT})"
        )
    return (sender << META_SENDER_SHIFT) | (tag << META_TAG_SHIFT) | kind_code


class TraceColumns(Sequence):
    """One trace level (logical or physical) of one rank, stored columnar.

    Behaves as an immutable-ish sequence of :class:`TraceRecord` (len, index,
    slice, iterate, compare against record lists), while exposing the raw
    columns and vectorised NumPy accessors to the analysis layer.

    Parameters
    ----------
    receiver:
        The owning rank (the ``receiver`` field of every materialised record).
    explicit_seq:
        Whether stream positions are stored (logical streams, loaded traces)
        or implicit insertion order (physical streams while recording).
    """

    __slots__ = ("receiver", "meta", "nbytes", "time", "seq", "_records_cache")

    def __init__(self, receiver: int, explicit_seq: bool = True) -> None:
        self.receiver = receiver
        self.meta = array("q")
        self.nbytes = array("q")
        self.time = array("d")
        self.seq: array | None = array("q") if explicit_seq else None
        self._records_cache: list[TraceRecord] | None = None

    # ------------------------------------------------------------------
    # Pickling (bound-method append caches never live here, so default
    # slot-state pickling works; spelled out for clarity and stability).
    # ------------------------------------------------------------------
    def __getstate__(self):
        return (self.receiver, self.meta, self.nbytes, self.time, self.seq)

    def __setstate__(self, state) -> None:
        self.receiver, self.meta, self.nbytes, self.time, self.seq = state
        self._records_cache = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(
        self,
        sender: int,
        nbytes: int,
        tag: int,
        kind: str,
        time: float,
        seq: int | None = None,
    ) -> None:
        """Append one record (the convenience path; the tracer appends raw
        scalars through cached bound methods instead)."""
        code = KIND_CODES.get(kind)
        if code is None:
            raise ValueError(
                f"unsupported record kind {kind!r} "
                f"(the columnar store encodes {sorted(KIND_CODES)})"
            )
        self.meta.append(pack_meta(sender, tag, code))
        self.nbytes.append(nbytes)
        self.time.append(time)
        if seq is not None:
            self._ensure_explicit_seq(len(self.meta) - 1)
            self.seq.append(seq)
        elif self.seq is not None:
            self.seq.append(len(self.meta) - 1)
        self._records_cache = None

    def _ensure_explicit_seq(self, existing: int) -> None:
        """Materialise the implicit insertion-order ``seq`` column."""
        if self.seq is None:
            self.seq = array("q", range(existing))

    # ------------------------------------------------------------------
    # Vectorised accessors (fresh NumPy arrays, safe for callers to keep)
    # ------------------------------------------------------------------
    def _meta_np(self) -> np.ndarray:
        return np.frombuffer(self.meta, dtype=np.int64)

    def sender_array(self) -> np.ndarray:
        """Sender ranks as an int64 array."""
        return self._meta_np() >> META_SENDER_SHIFT

    def size_array(self) -> np.ndarray:
        """Message sizes (bytes) as an int64 array."""
        return np.frombuffer(self.nbytes, dtype=np.int64).copy()

    def tag_array(self) -> np.ndarray:
        """Message tags as an int64 array."""
        return (self._meta_np() >> META_TAG_SHIFT) & _TAG_MASK

    def kind_code_array(self) -> np.ndarray:
        """Kind codes (see :data:`KIND_CODES`) as an int64 array."""
        return self._meta_np() & META_KIND_MASK

    def time_array(self) -> np.ndarray:
        """Record timestamps as a float64 array."""
        return np.frombuffer(self.time, dtype=np.float64).copy()

    def seq_array(self) -> np.ndarray:
        """Stream positions as an int64 array (implicit -> 0..n-1)."""
        if self.seq is None:
            return np.arange(len(self.meta), dtype=np.int64)
        return np.frombuffer(self.seq, dtype=np.int64).copy()

    # ------------------------------------------------------------------
    # Sorting (canonical stream orders)
    # ------------------------------------------------------------------
    def _reorder(self, order: np.ndarray) -> None:
        meta = self._meta_np()[order]
        sizes = np.frombuffer(self.nbytes, dtype=np.int64)[order]
        times = np.frombuffer(self.time, dtype=np.float64)[order]
        self.meta = array("q")
        self.meta.frombytes(meta.tobytes())
        self.nbytes = array("q")
        self.nbytes.frombytes(sizes.tobytes())
        self.time = array("d")
        self.time.frombytes(times.tobytes())
        self._records_cache = None

    def sort_by_seq(self) -> None:
        """Sort into stream-position order (the logical canonical order)."""
        if len(self.meta) <= 1:
            return
        if self.seq is None:  # already in insertion == seq order
            return
        seqs = np.frombuffer(self.seq, dtype=np.int64)
        order = np.argsort(seqs, kind="stable")
        self._reorder(order)
        self.seq = array("q")
        self.seq.frombytes(seqs[order].tobytes())

    def sort_by_arrival(self) -> None:
        """Sort by ``(time, sender, tag)`` (the physical canonical order).

        Exact-tie timestamps are real under deterministic networks (the
        symmetric phases of a collective land several senders' payloads on
        one receiver at the same instant), and *insertion* order for such
        ties is an engine artefact: the partitioned parallel drain pushes
        barrier-injected remote arrivals after locally scheduled ones, while
        the single-process drains interleave them in global posting order.
        Breaking ties by the packed ``meta`` word (sender-major, then tag)
        instead makes the canonical stream a pure function of the simulated
        communication, identical across every engine.  The per-channel FIFO
        clamp guarantees two same-sender records never share a timestamp
        (the only exception — a fault-injected duplicate ghost — is bitwise
        identical to its original, so its relative order is unobservable).
        ``seq`` is then simply the canonical position, materialised as the
        explicit ``seq`` column.
        """
        n = len(self.meta)
        times = np.frombuffer(self.time, dtype=np.float64)
        if self.seq is None:
            if n <= 1:
                self._ensure_explicit_seq(n)
                return
            metas = self._meta_np()
            sizes = np.frombuffer(self.nbytes, dtype=np.int64)
            order = np.lexsort((sizes, metas, times))
            self._reorder(order)
            self.seq = array("q")
            self.seq.frombytes(np.arange(n, dtype=np.int64).tobytes())
        else:
            if n <= 1:
                return
            seqs = np.frombuffer(self.seq, dtype=np.int64)
            order = np.lexsort((seqs, times))
            self._reorder(order)
            self.seq = array("q")
            self.seq.frombytes(seqs[order].tobytes())

    # ------------------------------------------------------------------
    # Lazy record views (the API boundary)
    # ------------------------------------------------------------------
    def records(self) -> list[TraceRecord]:
        """Materialise the column store as a list of :class:`TraceRecord`.

        The returned list is the caller's to mutate; the records themselves
        are cached, so repeated calls only pay for the list copy.
        """
        return list(self._records())

    def _records(self) -> list[TraceRecord]:
        """The shared record cache (internal: callers must not mutate it)."""
        cached = self._records_cache
        if cached is not None:
            return cached
        n = len(self.meta)
        if not n:
            self._records_cache = []
            return self._records_cache
        meta = self._meta_np()
        senders = (meta >> META_SENDER_SHIFT).tolist()
        tags = ((meta >> META_TAG_SHIFT) & _TAG_MASK).tolist()
        names = KIND_NAMES
        kinds = [names[code] for code in (meta & META_KIND_MASK).tolist()]
        receiver = self.receiver
        record = TraceRecord
        self._records_cache = [
            record(receiver, s, nb, t, k, tm, q)
            for s, nb, t, k, tm, q in zip(
                senders, self.nbytes.tolist(), tags, kinds,
                self.time.tolist(), self.seq_array().tolist(),
            )
        ]
        return self._records_cache

    def _record_at(self, index: int) -> TraceRecord:
        meta = self.meta[index]
        seq = index if self.seq is None else self.seq[index]
        return TraceRecord(
            self.receiver,
            meta >> META_SENDER_SHIFT,
            self.nbytes[index],
            (meta >> META_TAG_SHIFT) & _TAG_MASK,
            KIND_NAMES[meta & META_KIND_MASK],
            self.time[index],
            seq,
        )

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.meta)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._records()[index]
        n = len(self.meta)
        if index < 0:
            index += n
        if not (0 <= index < n):
            raise IndexError(f"record index {index} out of range for {n} records")
        return self._record_at(index)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records())

    def __eq__(self, other) -> bool:
        if isinstance(other, TraceColumns):
            return (
                self.receiver == other.receiver
                and self.meta == other.meta
                and self.nbytes == other.nbytes
                and self.time == other.time
                and np.array_equal(self.seq_array(), other.seq_array())
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and self._records() == list(other)
        return NotImplemented

    __hash__ = None  # mutable container

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceColumns(receiver={self.receiver}, records={len(self.meta)})"
