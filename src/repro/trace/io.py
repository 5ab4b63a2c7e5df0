"""Trace persistence: save and load per-process traces as JSON lines.

Simulating the larger configurations takes seconds to minutes; analysing the
resulting streams (prediction sweeps, ablations) is much cheaper and often
repeated.  These helpers let users persist the two-level traces of a run and
re-load them later without re-simulating — the same role the original paper's
trace files played between the instrumented MPICH runs and the off-line
predictor evaluation.

Format (version 2, columnar): one JSON object per line.  The first line is a
header describing the run; every other line is **one rank's whole trace** —
the logical and physical column vectors (sender, nbytes, tag, kind_code,
time, seq) serialised as parallel lists.  One object per rank instead of one
per record keeps both the file size and the save/load cost per message tiny:
serialisation runs over whole columns, never over Python record objects.

A file is outside input: :func:`load_traces` checks the shape of what it
parsed and answers every malformed line with one ``ValueError`` naming the
1-based line.  Version 2 is the only version read or written.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TextIO

import numpy as np

from repro.trace.columns import (
    META_FIELD_LIMIT,
    META_SENDER_SHIFT,
    META_TAG_SHIFT,
    TraceColumns,
)
from repro.trace.tracer import ProcessTrace, TwoLevelTracer

__all__ = [
    "save_traces",
    "save_traces_to",
    "load_traces",
    "load_traces_from",
]

_FORMAT_VERSION = 2

#: Field order of the columnar payload (version 2).
_COLUMN_FIELDS = ("sender", "nbytes", "tag", "kind_code", "time", "seq")


# ----------------------------------------------------------------------
# Version-2 (columnar) helpers
# ----------------------------------------------------------------------
def _columns_to_payload(columns: TraceColumns) -> dict:
    """One trace level as parallel column lists (JSON-ready)."""
    return {
        "sender": columns.sender_array().tolist(),
        "nbytes": columns.size_array().tolist(),
        "tag": columns.tag_array().tolist(),
        "kind_code": columns.kind_code_array().tolist(),
        "time": columns.time_array().tolist(),
        "seq": columns.seq_array().tolist(),
    }


def _columns_from_payload(receiver: int, payload: dict) -> TraceColumns:
    """Rebuild a :class:`TraceColumns` from parallel column lists."""
    missing = [field for field in _COLUMN_FIELDS if field not in payload]
    if missing:
        raise ValueError(f"trace payload is missing columns: {missing}")
    lengths = {field: len(payload[field]) for field in _COLUMN_FIELDS}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"trace payload columns have unequal lengths: {lengths}")
    columns = TraceColumns(receiver)
    n = lengths["sender"]
    if not n:
        return columns
    senders = np.asarray(payload["sender"], dtype=np.int64)
    tags = np.asarray(payload["tag"], dtype=np.int64)
    kind_codes = np.asarray(payload["kind_code"], dtype=np.int64)
    for name, values in (("sender", senders), ("tag", tags)):
        if values.min() < 0 or values.max() >= META_FIELD_LIMIT:
            raise ValueError(
                f"trace payload {name} column outside [0, {META_FIELD_LIMIT})"
            )
    if kind_codes.min() < 0 or kind_codes.max() > 1:
        raise ValueError("trace payload kind_code column must be 0 (p2p) or 1 (collective)")
    meta = (senders << META_SENDER_SHIFT) | (tags << META_TAG_SHIFT) | kind_codes
    columns.meta.frombytes(meta.tobytes())
    columns.nbytes.frombytes(np.asarray(payload["nbytes"], dtype=np.int64).tobytes())
    columns.time.frombytes(np.asarray(payload["time"], dtype=np.float64).tobytes())
    columns.seq.frombytes(np.asarray(payload["seq"], dtype=np.int64).tobytes())
    return columns


# ----------------------------------------------------------------------
# Whole-run save/load
# ----------------------------------------------------------------------
def save_traces_to(
    tracer: TwoLevelTracer,
    handle: TextIO,
    metadata: dict | None = None,
) -> int:
    """Write every rank's traces to an open text handle (columnar format).

    Returns the total number of records written.
    """
    tracer.finalize()
    header = {
        "format": "repro-trace",
        "version": _FORMAT_VERSION,
        "nprocs": tracer.nprocs,
        "metadata": metadata or {},
    }
    handle.write(json.dumps(header) + "\n")
    total = 0
    for trace in tracer.traces:
        payload = {
            "rank": trace.rank,
            "logical": _columns_to_payload(trace.logical),
            "physical": _columns_to_payload(trace.physical),
        }
        handle.write(json.dumps(payload) + "\n")
        total += len(trace.logical) + len(trace.physical)
    return total


def save_traces(
    tracer: TwoLevelTracer,
    path: str | Path,
    metadata: dict | None = None,
) -> int:
    """Save every rank's traces to ``path`` (columnar JSON lines).

    Parameters
    ----------
    tracer:
        The finalized tracer of a completed simulation.
    path:
        Destination file.
    metadata:
        Optional run metadata (workload name, seed, ...) stored in the header
        line and returned by :func:`load_traces`.

    Returns
    -------
    int
        Total number of records written.
    """
    with Path(path).open("w", encoding="utf-8") as handle:
        return save_traces_to(tracer, handle, metadata=metadata)


def _object_at(line: str, lineno: int, what: str) -> dict:
    """Parse one line; anything but a JSON object is an error naming the line."""
    value = json.loads(line)
    if not isinstance(value, dict):
        raise ValueError(
            f"line {lineno}: {what} must be a JSON object, got {type(value).__name__}"
        )
    return value


def _load_v2_ranks(handle: TextIO, traces: list[ProcessTrace]) -> None:
    """Load the one-object-per-rank columnar lines.

    Line numbers in errors are 1-based and count the header as line 1.
    """
    nprocs = len(traces)
    seen: set[int] = set()
    for lineno, line in enumerate(handle, start=2):
        line = line.strip()
        if not line:
            continue
        payload = _object_at(line, lineno, "a rank line")
        missing = [key for key in ("rank", "logical", "physical") if key not in payload]
        if missing:
            raise ValueError(f"line {lineno}: rank line is missing {missing}")
        rank = int(payload["rank"])
        if not (0 <= rank < nprocs):
            raise ValueError(f"trace rank {rank} out of range")
        if rank in seen:
            raise ValueError(f"duplicate trace rank {rank} on line {lineno}")
        seen.add(rank)
        traces[rank] = ProcessTrace(
            rank=rank,
            logical=_columns_from_payload(rank, payload["logical"]),
            physical=_columns_from_payload(rank, payload["physical"]),
        )


def load_traces_from(handle: TextIO) -> tuple[list[ProcessTrace], dict]:
    """Load traces from an open text handle."""
    header_line = handle.readline()
    if not header_line:
        raise ValueError("trace stream is empty")
    header = _object_at(header_line, 1, "the trace header")
    if header.get("format") != "repro-trace":
        raise ValueError("not a repro trace file")
    version = header.get("version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported trace format version {version!r} "
            f"(this build reads version {_FORMAT_VERSION})"
        )
    nprocs = header.get("nprocs")
    if type(nprocs) is not int or nprocs < 1:
        raise ValueError(
            f"line 1: the trace header needs an integer nprocs >= 1, got {nprocs!r}"
        )
    traces = [ProcessTrace(rank=rank) for rank in range(nprocs)]
    _load_v2_ranks(handle, traces)
    for trace in traces:
        trace.sort()
    return traces, header.get("metadata", {})


def load_traces(path: str | Path) -> tuple[list[ProcessTrace], dict]:
    """Load traces saved by :func:`save_traces`.

    Returns
    -------
    (traces, metadata):
        One :class:`ProcessTrace` per rank (index = rank) and the metadata
        dictionary stored at save time.
    """
    with Path(path).open("r", encoding="utf-8") as handle:
        return load_traces_from(handle)
