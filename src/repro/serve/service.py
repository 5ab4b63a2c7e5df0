"""The transport-independent serve core: shard routing + query handling.

:class:`ServeService` is the synchronous heart of ``repro serve``: it hashes
stream keys onto N in-process shards, applies observe events, answers
queries, and snapshots/restores the whole service (a manifest plus one
snapshot file per shard).  The front end (:mod:`repro.serve.server`) turns
request bytes into calls on it — :meth:`ServeService.handle` per parsed
event, ``Shard.observe_batch`` per coalesced run — for both transports;
tests and examples drive the service directly, same code path.

Shard routing is **deterministic across processes**: keys route by
``zlib.crc32(key) % num_shards``, never by Python's randomised ``hash``, so
a restarted service (or a peer reading the snapshot manifest) routes every
key to the same shard.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from pathlib import Path

from repro.scenario.spec import PredictorSpec
from repro.serve.protocol import ServeEvent, ServeProtocolError, parse_event_line
from repro.serve.shard import Shard
from repro.serve.snapshot import SNAPSHOT_VERSION, SnapshotError

__all__ = ["ServeService", "MANIFEST_NAME"]

#: File name of the service-level snapshot manifest.
MANIFEST_NAME = "manifest.json"

#: Manifest format name/version (the per-shard files carry their own).
MANIFEST_FORMAT = "repro-serve-manifest"
MANIFEST_VERSION = 2


class ServeService:
    """Sharded online prediction service (synchronous core).

    Parameters
    ----------
    predictor:
        Registry predictor spec (string shorthand, mapping, or
        ``PredictorSpec``); its ``horizon`` is the default query horizon.
    num_shards:
        In-process shards to hash streams over.
    max_streams, max_bytes:
        **Per-shard** stream-table bounds (see
        :class:`repro.serve.table.StreamTable`).
    """

    def __init__(
        self,
        predictor=None,
        *,
        num_shards: int = 1,
        max_streams: int | None = None,
        max_bytes: int | None = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.spec = PredictorSpec.coerce(predictor)
        self.spec.factory()()  # a spec that cannot build fails here, not at the first observe
        self.shards = [
            Shard(index, num_shards, self.spec, max_streams=max_streams, max_bytes=max_bytes)
            for index in range(num_shards)
        ]
        #: Malformed event lines rejected so far (the service survives them).
        self.parse_errors = 0

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_index_for(self, key: str) -> int:
        """Deterministic key → shard routing (process-stable CRC32)."""
        return zlib.crc32(key.encode("utf-8")) % len(self.shards)

    def shard_for(self, key: str) -> Shard:
        return self.shards[self.shard_index_for(key)]

    # ------------------------------------------------------------------
    def observe(self, receiver, sender: int, nbytes: int) -> None:
        """Feed one message into the stream of ``receiver``."""
        key = receiver if isinstance(receiver, str) else str(receiver)
        self.shard_for(key).observe(key, sender, nbytes)

    def predict(self, receiver, horizon: int | None = None):
        """Predicted next messages at ``receiver`` (None when unknown)."""
        key = receiver if isinstance(receiver, str) else str(receiver)
        return self.shard_for(key).predict(key, horizon)

    def expects(self, receiver, sender: int, nbytes: int | None = None):
        """Whether ``receiver`` expects a message from ``sender`` (None = unknown)."""
        key = receiver if isinstance(receiver, str) else str(receiver)
        return self.shard_for(key).expects(key, sender, nbytes)

    def stats(self) -> dict:
        """Service-wide counters plus the per-shard breakdown."""
        shard_stats = [shard.stats() for shard in self.shards]
        streams = sum(entry["streams"] for entry in shard_stats)
        resident = sum(entry["resident_bytes"] for entry in shard_stats)
        return {
            "op": "stats",
            "num_shards": len(self.shards),
            "predictor": self.spec.to_dict(),
            "streams": streams,
            "observations": sum(entry["observations"] for entry in shard_stats),
            "evictions": sum(entry["evictions"] for entry in shard_stats),
            "resident_bytes": resident,
            "resident_bytes_per_stream": resident // streams if streams else 0,
            "parse_errors": self.parse_errors,
            "shards": shard_stats,
        }

    # ------------------------------------------------------------------
    def handle(self, event: ServeEvent) -> dict | None:
        """Apply one parsed event; returns the response object (None for observes).

        Events are applied immediately, so ``flush`` is an acknowledgement;
        so is ``shutdown`` here (stopping is the front end's business).
        """
        if event.op == "observe":
            self.shard_for(event.receiver).observe(event.receiver, event.sender, event.nbytes)
            return None
        if event.op == "predict":
            predictions = self.shard_for(event.receiver).predict(event.receiver, event.horizon)
            return {
                "op": "predict",
                "receiver": event.receiver,
                "known": predictions is not None,
                "predictions": [
                    {"sender": sender, "nbytes": nbytes} for sender, nbytes in predictions or ()
                ],
            }
        if event.op == "expects":
            expected = self.shard_for(event.receiver).expects(
                event.receiver, event.sender, event.nbytes
            )
            return {
                "op": "expects",
                "receiver": event.receiver,
                "sender": event.sender,
                "known": expected is not None,
                "expected": bool(expected),
            }
        if event.op == "stats":
            return self.stats()
        if event.op == "snapshot":
            manifest = self.snapshot(event.dir)
            return {
                "op": "snapshot",
                "dir": event.dir,
                "shards": manifest["num_shards"],
                "streams": manifest["streams"],
            }
        if event.op in ("flush", "shutdown"):
            return {"op": event.op, "ok": True}
        raise ValueError(f"unhandled op {event.op!r}")  # pragma: no cover - parser gates ops

    def handle_line(self, line: str, line_number: int = 1) -> dict | None:
        """Parse and apply one wire line (raises :class:`ServeProtocolError`).

        The parse-error counter is bumped before re-raising, so callers that
        turn the error into an ``{"error": ...}`` response keep an accurate
        rejected-line count in ``stats``.
        """
        try:
            event = parse_event_line(line, line_number)
        except ServeProtocolError:
            self.parse_errors += 1
            raise
        return self.handle(event)

    # ------------------------------------------------------------------
    def snapshot(self, directory) -> dict:
        """Snapshot every shard into ``directory`` (atomic per file).

        Writes ``shard-<index>.snap`` per shard, then a ``manifest.json``
        naming them with the sha256 of each.  A restore reads exactly the
        files the manifest was written with: a snapshot interrupted between
        two shard files leaves a directory that is refused, never one that
        restores as a mix of two snapshots.
        """
        base = Path(directory)
        base.mkdir(parents=True, exist_ok=True)
        shard_files = []
        streams = 0
        for shard in self.shards:
            name = f"shard-{shard.index:02d}.snap"
            streams += shard.snapshot(base / name)["streams"]
            digest = hashlib.sha256((base / name).read_bytes()).hexdigest()
            shard_files.append({"file": name, "sha256": digest})
        manifest = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "snapshot_version": SNAPSHOT_VERSION,
            "num_shards": len(self.shards),
            "predictor": self.spec.to_dict(),
            "streams": streams,
            "shards": shard_files,
        }
        tmp_path = base / (MANIFEST_NAME + ".tmp")
        tmp_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(tmp_path, base / MANIFEST_NAME)
        return manifest

    @classmethod
    def restore(cls, directory) -> "ServeService":
        """Rebuild a whole service from a snapshot directory.

        Subsequent predictions are bit-identical to the snapshotted
        service's; shard routing is reproduced because the shard count and
        the CRC32 routing are both pinned by the manifest.
        """
        base = Path(directory)
        spec, shard_files = _read_manifest(base / MANIFEST_NAME)
        service = cls.__new__(cls)
        service.spec = spec
        service.shards = []
        service.parse_errors = 0
        for index, entry in enumerate(shard_files):
            path = base / entry["file"]
            shard = Shard.restore(path)  # refuses another format version by name first
            if hashlib.sha256(path.read_bytes()).hexdigest() != entry["sha256"]:
                raise SnapshotError(
                    path, "sha256 differs from the one the manifest records: the "
                    "file was replaced, or its snapshot was interrupted",
                )
            if shard.index != index or shard.num_shards != len(shard_files):
                raise SnapshotError(
                    path,
                    f"shard identity ({shard.index} of {shard.num_shards}) does "
                    f"not match its manifest position ({index} of {len(shard_files)})",
                    shard=shard.index,
                )
            service.shards.append(shard)
        for shard in service.shards:  # keys sit outside the record CRCs
            for key in shard.table.keys():
                if service.shard_index_for(key) != shard.index:
                    raise SnapshotError(
                        base / shard_files[shard.index]["file"],
                        f"stream {key!r} routes to shard {service.shard_index_for(key)}",
                        shard=shard.index,
                    )
        return service


def _read_manifest(path: Path) -> tuple[PredictorSpec, list[dict]]:
    """The predictor spec and ``{"file", "sha256"}`` shard entries of a manifest, checked."""
    try:
        manifest = json.loads(path.read_bytes().decode("utf-8"))
    except OSError as error:
        raise SnapshotError(path, f"cannot open: {error}") from None
    except ValueError as error:  # not UTF-8, not JSON
        raise SnapshotError(path, f"corrupt manifest: {error}") from None
    if not isinstance(manifest, dict):
        raise SnapshotError(path, f"manifest is a JSON {type(manifest).__name__}, not an object")
    if manifest.get("format") != MANIFEST_FORMAT:
        raise SnapshotError(path, f"not a {MANIFEST_FORMAT} manifest: {manifest.get('format')!r}")
    version = manifest.get("version")
    if type(version) is not int or version != MANIFEST_VERSION:
        newer = "newer than" if type(version) is int and version > MANIFEST_VERSION else "not"
        raise SnapshotError(
            path, f"manifest version {version!r} is {newer} the supported version "
            f"{MANIFEST_VERSION} — refusing to guess",
        )
    files = manifest.get("shards")
    if not isinstance(files, list) or not all(
        isinstance(f, dict) and isinstance(f.get("sha256"), str)
        and isinstance(f.get("file"), str) and Path(f["file"]).name == f["file"]
        for f in files
    ):
        raise SnapshotError(path, "manifest shards must be a list of {file, sha256} objects")
    if not files or len(files) != manifest.get("num_shards"):
        raise SnapshotError(
            path, f"manifest names {len(files)} shard files but declares "
            f"num_shards={manifest.get('num_shards')!r}",
        )
    try:
        return PredictorSpec.coerce(manifest.get("predictor")), files
    except (KeyError, TypeError, ValueError) as error:
        raise SnapshotError(path, f"manifest predictor: {error}") from None
