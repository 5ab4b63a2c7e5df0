"""Versioned, atomic on-disk shard snapshots (``repro-serve-snapshot``).

A snapshot captures one shard's complete stream table — every resident
stream's predictor state, in LRU order — so a shard can be drained, moved to
another process/host, or restarted without losing stream state.  Restoring a
snapshot reproduces bit-identical subsequent predictions.

The layout (``docs/formats.md``): magic, version, a JSON header, then one
record per stream, coldest first — key, CRC32 and the stream's typed
predictor state (:mod:`repro.predictive.state`) — and a trailer.  Writes are
atomic (``<path>.tmp``, fsync, ``os.replace``).  Every structural violation
raises :class:`SnapshotError` naming the file, the shard (once the header is
readable) and the byte offset of the damage; a version other than
:data:`SNAPSHOT_VERSION` is refused before any record is decoded (versions 1
and 2 held pickled predictor objects).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Iterable

from repro.predictive.state import SnapshotError, freeze_state, thaw_record
from repro.util.digest import sha256 as digest

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "write_snapshot",
    "load_snapshot",
]

SNAPSHOT_FORMAT = "repro-serve-snapshot"
SNAPSHOT_VERSION = 3

_MAGIC = b"REPROSRVSNAP"
_TRAILER = b"REPROSRVEND\n"
_U32 = struct.Struct("<I")


def write_snapshot(path, header: dict, streams: Iterable[tuple[str, object]]) -> dict:
    """Write one shard snapshot atomically; returns the final header.

    ``header`` must carry the shard identity fields (``shard_index``,
    ``num_shards``, ``predictor`` ...); ``streams`` (the record count) is
    filled in here.  ``streams`` is an iterable of ``(key, predictor)`` pairs
    written in iteration order — pass the table's LRU order so a restore
    reproduces the eviction order too.
    """
    target = Path(path)
    records = [(key.encode("utf-8"), freeze_state(predictor)) for key, predictor in streams]
    final_header = {**header, "streams": len(records)}
    header_bytes = json.dumps(final_header, sort_keys=True).encode("utf-8")
    parts = [_MAGIC, _U32.pack(SNAPSHOT_VERSION), _U32.pack(len(header_bytes)), header_bytes]
    for key_bytes, blob in records:
        parts += [_U32.pack(len(key_bytes)), key_bytes, _U32.pack(len(blob))]
        parts += [_U32.pack(zlib.crc32(blob)), blob]
    tmp_path = target.with_name(target.name + ".tmp")
    with open(tmp_path, "wb") as handle:
        handle.write(b"".join(parts) + _TRAILER)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, target)
    return final_header


class _Cursor:
    """Bounds-checked reads over a snapshot file's bytes."""

    def __init__(self, path: Path, data: bytes) -> None:
        self.path, self.data, self.offset, self.shard = path, data, 0, None

    def take(self, size: int, what: str) -> bytes:
        start = self.offset
        chunk = self.data[start : start + size]
        if len(chunk) != size:
            self.fail(f"truncated: expected {size} bytes of {what}, got {len(chunk)}", start)
        self.offset = start + size
        return chunk

    def u32(self, what: str) -> int:
        return _U32.unpack(self.take(4, what))[0]

    def fail(self, message: str, offset: int | None):
        raise SnapshotError(self.path, message, shard=self.shard, offset=offset)


def load_snapshot(path, sha256: str | None = None) -> tuple[dict, list[tuple[str, tuple, object]]]:
    """Read a shard snapshot once; returns ``(header, [(key, configuration, predictor), ...])``.

    The stream list preserves the written order (coldest first).  Raises
    :class:`SnapshotError` on any structural damage — wrong magic, another
    version, a digest other than ``sha256`` (checked before any record is
    read), truncation, a CRC mismatch, a record that is not a predictor
    state — naming the shard and offset.
    """
    target = Path(path)
    try:
        data = target.read_bytes()
    except OSError as error:
        raise SnapshotError(target, f"cannot open: {error}") from None
    cursor = _Cursor(target, data)
    magic = cursor.take(len(_MAGIC), "magic")
    if magic != _MAGIC:
        cursor.fail(f"bad magic {magic!r} (not a {SNAPSHOT_FORMAT} file)", 0)
    version = cursor.u32("version")
    if version != SNAPSHOT_VERSION:
        cursor.fail(
            f"format version {version} refused: this build reads only the "
            f"supported version {SNAPSHOT_VERSION}",
            len(_MAGIC),
        )
    if sha256 is not None and digest(data).hexdigest() != sha256:
        cursor.fail(
            "sha256 differs from the one the manifest records: the file was "
            "replaced, or its snapshot was interrupted", None,
        )
    header_len = cursor.u32("header length")
    header_offset = cursor.offset
    try:
        header = json.loads(cursor.take(header_len, "header").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        cursor.fail(f"corrupt header: {error}", header_offset)
    if not isinstance(header, dict):
        cursor.fail(f"header is a JSON {type(header).__name__}, not an object", header_offset)
    shard = header.get("shard_index")
    cursor.shard = shard if type(shard) is int else None
    expected = header.get("streams")
    if type(expected) is not int or expected < 0:
        cursor.fail(f"header stream count {expected!r} invalid", header_offset)
    streams: list[tuple[str, tuple, object]] = []
    for index in range(expected):
        record_offset = cursor.offset
        key_bytes = cursor.take(cursor.u32(f"record {index} key length"), f"record {index} key")
        blob_len = cursor.u32(f"record {index} blob length")
        blob_crc = cursor.u32(f"record {index} blob crc")
        blob_offset = cursor.offset
        blob = cursor.take(blob_len, f"record {index} blob")
        if zlib.crc32(blob) != blob_crc:
            cursor.fail(
                f"stream record {index} ({key_bytes!r}) CRC mismatch — snapshot is corrupted",
                blob_offset,
            )
        try:
            key = key_bytes.decode("utf-8")
        except UnicodeDecodeError:
            cursor.fail(f"stream record {index} key is not valid UTF-8", record_offset)
        try:
            config, predictor = thaw_record(blob)
        except SnapshotError as error:
            cursor.fail(
                f"stream record {index} ({key!r}): {error.reason}",
                blob_offset + (error.offset or 0),
            )
        streams.append((key, config, predictor))
    trailer_offset = cursor.offset
    trailer = cursor.take(len(_TRAILER), "trailer")
    if trailer != _TRAILER:
        cursor.fail(f"bad trailer {trailer!r} — snapshot was not finished", trailer_offset)
    if cursor.offset != len(data):
        cursor.fail("trailing bytes after the snapshot trailer", cursor.offset)
    return header, streams
