"""Versioned, atomic on-disk shard snapshots (``repro-serve-snapshot``).

A snapshot captures one shard's complete stream table — every resident
stream's predictor state, in LRU order — so a shard can be drained, moved to
another process/host, or restarted without losing stream state.  Restoring a
snapshot reproduces bit-identical subsequent predictions (the state codec is
byte-exact, see :mod:`repro.predictive.state`).

On-disk layout (documented in ``docs/formats.md``; all integers little
endian)::

    magic      12 bytes  b"REPROSRVSNAP"
    version    uint32    format version (currently 2)
    header_len uint32
    header     JSON (UTF-8): shard identity, predictor spec, caps, counters
    N records, one per stream, coldest (least recently used) first:
        key_len  uint32
        key      UTF-8 stream key
        blob_len uint32
        blob_crc uint32   zlib.crc32 of blob
        blob     pickled predictor state (protocol 4)
    trailer    12 bytes  b"REPROSRVEND\\n"

Writes are **atomic**: the file is written to ``<path>.tmp`` in the same
directory, fsynced, then ``os.replace``d over the target — a crashed
snapshot never leaves a half-written file under the published name.

Every structural violation raises :class:`SnapshotError` naming the file,
the shard (once the header is readable) and the byte offset of the damage;
any version other than :data:`SNAPSHOT_VERSION` is rejected up front with the
versions spelled out, before anything is unpickled.  Version 1 files hold the
predictor state of the detector's earlier NumPy-array layout, which this
build's classes cannot use.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Iterable, Iterator

from repro.predictive.state import freeze_state, thaw_state

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "write_snapshot",
    "load_snapshot",
]

SNAPSHOT_FORMAT = "repro-serve-snapshot"
SNAPSHOT_VERSION = 2

_MAGIC = b"REPROSRVSNAP"
_TRAILER = b"REPROSRVEND\n"
_U32 = struct.Struct("<I")


class SnapshotError(RuntimeError):
    """A structurally invalid snapshot file.

    Attributes
    ----------
    path:
        The snapshot file.
    shard:
        Shard index from the header, when it was readable (else None).
    offset:
        Byte offset of the damage, when meaningful (else None).
    """

    def __init__(
        self,
        path,
        message: str,
        *,
        shard: int | None = None,
        offset: int | None = None,
    ) -> None:
        location = f"snapshot {path}"
        if shard is not None:
            location += f" (shard {shard})"
        if offset is not None:
            message += f" at offset {offset}"
        super().__init__(f"{location}: {message}")
        self.path = str(path)
        self.shard = shard
        self.offset = offset


def write_snapshot(path, header: dict, streams: Iterable[tuple[str, object]]) -> dict:
    """Write one shard snapshot atomically; returns the final header.

    ``header`` must carry the shard identity fields (``shard_index``,
    ``num_shards``, ``predictor`` ...); ``format``, ``version`` and
    ``streams`` (the record count) are filled in here.  ``streams`` is an
    iterable of ``(key, state)`` pairs written in iteration order — pass the
    table's LRU order so a restore reproduces the eviction order too.
    """
    target = Path(path)
    records = []
    for key, state in streams:
        key_bytes = key.encode("utf-8")
        blob = freeze_state(state)
        records.append((key_bytes, blob))
    final_header = dict(header)
    final_header["format"] = SNAPSHOT_FORMAT
    final_header["version"] = SNAPSHOT_VERSION
    final_header["streams"] = len(records)
    header_bytes = json.dumps(final_header, sort_keys=True).encode("utf-8")

    tmp_path = target.with_name(target.name + ".tmp")
    with open(tmp_path, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(_U32.pack(SNAPSHOT_VERSION))
        handle.write(_U32.pack(len(header_bytes)))
        handle.write(header_bytes)
        for key_bytes, blob in records:
            handle.write(_U32.pack(len(key_bytes)))
            handle.write(key_bytes)
            handle.write(_U32.pack(len(blob)))
            handle.write(_U32.pack(zlib.crc32(blob)))
            handle.write(blob)
        handle.write(_TRAILER)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, target)
    return final_header


def _read_exact(handle, n: int, path, what: str, shard: int | None) -> bytes:
    offset = handle.tell()
    data = handle.read(n)
    if len(data) != n:
        raise SnapshotError(
            path,
            f"truncated: expected {n} bytes of {what}, got {len(data)}",
            shard=shard,
            offset=offset,
        )
    return data


def load_snapshot(path) -> tuple[dict, list[tuple[str, object]]]:
    """Read a shard snapshot; returns ``(header, [(key, state), ...])``.

    The stream list preserves the written order (coldest first).  Raises
    :class:`SnapshotError` on any structural damage — wrong magic, another
    version, truncation, or a CRC mismatch — naming the shard and offset.
    """
    target = Path(path)
    try:
        handle = open(target, "rb")
    except OSError as error:
        raise SnapshotError(target, f"cannot open: {error}") from None
    with handle:
        magic = _read_exact(handle, len(_MAGIC), target, "magic", None)
        if magic != _MAGIC:
            raise SnapshotError(
                target, f"bad magic {magic!r} (not a {SNAPSHOT_FORMAT} file)", offset=0
            )
        (version,) = _U32.unpack(_read_exact(handle, 4, target, "version", None))
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                target,
                f"format version {version} refused: this build reads only the "
                f"supported version {SNAPSHOT_VERSION}",
                offset=len(_MAGIC),
            )
        (header_len,) = _U32.unpack(_read_exact(handle, 4, target, "header length", None))
        header_offset = handle.tell()
        header_bytes = _read_exact(handle, header_len, target, "header", None)
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise SnapshotError(
                target, f"corrupt header: {error}", offset=header_offset
            ) from None
        shard = header.get("shard_index")
        expected = header.get("streams")
        if not isinstance(expected, int) or expected < 0:
            raise SnapshotError(
                target, f"header stream count {expected!r} invalid",
                shard=shard, offset=header_offset,
            )
        streams: list[tuple[str, object]] = []
        for index in range(expected):
            record_offset = handle.tell()
            (key_len,) = _U32.unpack(
                _read_exact(handle, 4, target, f"record {index} key length", shard)
            )
            key_bytes = _read_exact(handle, key_len, target, f"record {index} key", shard)
            (blob_len,) = _U32.unpack(
                _read_exact(handle, 4, target, f"record {index} blob length", shard)
            )
            (blob_crc,) = _U32.unpack(
                _read_exact(handle, 4, target, f"record {index} blob crc", shard)
            )
            blob_offset = handle.tell()
            blob = _read_exact(handle, blob_len, target, f"record {index} blob", shard)
            if zlib.crc32(blob) != blob_crc:
                raise SnapshotError(
                    target,
                    f"stream record {index} ({key_bytes!r}) CRC mismatch — "
                    "snapshot is corrupted",
                    shard=shard,
                    offset=blob_offset,
                )
            try:
                key = key_bytes.decode("utf-8")
            except UnicodeDecodeError:
                raise SnapshotError(
                    target,
                    f"stream record {index} key is not valid UTF-8",
                    shard=shard,
                    offset=record_offset,
                ) from None
            streams.append((key, thaw_state(blob)))
        trailer_offset = handle.tell()
        trailer = _read_exact(handle, len(_TRAILER), target, "trailer", shard)
        if trailer != _TRAILER:
            raise SnapshotError(
                target,
                f"bad trailer {trailer!r} — snapshot was not finished",
                shard=shard,
                offset=trailer_offset,
            )
        if handle.read(1):
            raise SnapshotError(
                target,
                "trailing bytes after the snapshot trailer",
                shard=shard,
                offset=trailer_offset + len(_TRAILER),
            )
    return header, streams


def iter_snapshot_files(directory) -> Iterator[Path]:
    """Yield the shard snapshot files of a service snapshot directory."""
    base = Path(directory)
    yield from sorted(base.glob("shard-*.snap"))
