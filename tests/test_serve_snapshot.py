"""Tests for the versioned shard snapshot format (repro.serve.snapshot).

The contract: snapshot → restore → bit-identical subsequent predictions
(shard level and whole-service level); every structural violation —
corruption, truncation, a future format version — raises a
:class:`SnapshotError` naming the file, the shard and the byte offset of
the damage; and writes are atomic (tmp + rename, manifest last).
"""

import io
import json
import struct

import pytest

from repro.cli import main as cli_main
from repro.serve.service import MANIFEST_NAME, ServeService
from repro.serve.shard import Shard
from repro.serve.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    iter_snapshot_files,
    load_snapshot,
    write_snapshot,
)

SPEC = "periodicity:window=6,max_period=12,horizon=4"

#: A few streams with distinct periodic patterns (keys chosen to spread
#: over shards under CRC32 routing).
PATTERNS = {
    "alpha": [(1, 100), (2, 200)],
    "beta": [(3, 300), (4, 400), (5, 500)],
    "gamma": [(6, 64)],
}


def build_shard(**kwargs):
    shard = Shard(0, 1, SPEC, **kwargs)
    for key, pattern in PATTERNS.items():
        for _ in range(12):
            for sender, nbytes in pattern:
                shard.observe(key, sender, nbytes)
    return shard


def shard_answers(shard):
    return {
        key: (shard.predict(key), shard.expects(key, pattern[0][0]))
        for key, pattern in PATTERNS.items()
    }


class TestShardRoundTrip:
    def test_restore_is_bit_identical(self, tmp_path):
        shard = build_shard()
        before = shard_answers(shard)
        shard.snapshot(tmp_path / "shard-00.snap")
        restored = Shard.restore(tmp_path / "shard-00.snap")
        assert shard_answers(restored) == before

    def test_restore_then_continue_matches_uninterrupted(self, tmp_path):
        # The strong form: a restored shard fed more traffic stays in
        # lockstep with a shard that never stopped.
        original = build_shard()
        original.snapshot(tmp_path / "s.snap")
        restored = Shard.restore(tmp_path / "s.snap")
        for shard in (original, restored):
            for _ in range(5):
                for sender, nbytes in PATTERNS["alpha"]:
                    shard.observe("alpha", sender, nbytes)
        assert shard_answers(restored) == shard_answers(original)

    def test_counters_and_lru_order_survive(self, tmp_path):
        shard = build_shard(max_streams=16)
        shard.predict("alpha")  # touch: alpha becomes hottest
        shard.snapshot(tmp_path / "s.snap")
        restored = Shard.restore(tmp_path / "s.snap")
        assert restored.observations == shard.observations
        assert list(restored.table.keys()) == list(shard.table.keys())
        assert restored.table.streams_created == shard.table.streams_created
        assert restored.spec == shard.spec
        assert restored.table.max_streams == 16
        assert restored.table.resident_bytes > 0

    def test_snapshot_is_atomic(self, tmp_path):
        shard = build_shard()
        target = tmp_path / "s.snap"
        shard.snapshot(target)
        first = target.read_bytes()
        shard.observe("alpha", 1, 100)
        shard.snapshot(target)  # overwrite in place
        assert not (tmp_path / "s.snap.tmp").exists()
        assert target.read_bytes() != first
        Shard.restore(target)  # still structurally valid


class TestStructuralErrors:
    def snapshot_bytes(self, tmp_path):
        shard = build_shard()
        target = tmp_path / "shard-00.snap"
        shard.snapshot(target)
        return target, bytearray(target.read_bytes())

    def test_corrupted_blob_names_shard_and_offset(self, tmp_path):
        target, data = self.snapshot_bytes(tmp_path)
        # Flip one byte deep inside the first pickled predictor blob.
        data[len(data) // 2] ^= 0xFF
        target.write_bytes(data)
        with pytest.raises(SnapshotError) as excinfo:
            load_snapshot(target)
        error = excinfo.value
        assert error.shard == 0
        assert error.offset is not None and error.offset > 0
        assert "shard 0" in str(error)
        assert f"at offset {error.offset}" in str(error)
        assert "CRC mismatch" in str(error)

    def test_truncated_snapshot_names_shard_and_offset(self, tmp_path):
        target, data = self.snapshot_bytes(tmp_path)
        target.write_bytes(bytes(data[: len(data) // 2]))
        with pytest.raises(SnapshotError) as excinfo:
            load_snapshot(target)
        assert "truncated" in str(excinfo.value)
        assert excinfo.value.shard == 0
        assert excinfo.value.offset is not None

    def test_missing_trailer_rejected(self, tmp_path):
        target, data = self.snapshot_bytes(tmp_path)
        target.write_bytes(bytes(data[:-1]))  # trailer cut short
        with pytest.raises(SnapshotError, match="truncated|trailer"):
            load_snapshot(target)

    def test_trailing_garbage_rejected(self, tmp_path):
        target, data = self.snapshot_bytes(tmp_path)
        target.write_bytes(bytes(data) + b"junk")
        with pytest.raises(SnapshotError, match="trailing bytes"):
            load_snapshot(target)

    def test_future_version_rejected_cleanly(self, tmp_path):
        target, data = self.snapshot_bytes(tmp_path)
        struct.pack_into("<I", data, 12, SNAPSHOT_VERSION + 41)  # version field
        target.write_bytes(data)
        with pytest.raises(SnapshotError) as excinfo:
            load_snapshot(target)
        message = str(excinfo.value)
        assert f"version {SNAPSHOT_VERSION + 41}" in message
        assert f"supported version {SNAPSHOT_VERSION}" in message
        assert excinfo.value.offset == 12

    def test_version_1_refused_before_anything_is_unpickled(self, tmp_path, monkeypatch):
        target, data = self.snapshot_bytes(tmp_path)
        struct.pack_into("<I", data, 12, 1)  # the layout before the bit-lane detector
        target.write_bytes(data)
        monkeypatch.setattr(
            "repro.serve.snapshot.thaw_state", lambda blob: pytest.fail("unpickled a v1 record")
        )
        with pytest.raises(SnapshotError) as excinfo:
            load_snapshot(target)
        assert str(excinfo.value) == (
            f"snapshot {target}: format version 1 refused: this build reads only "
            f"the supported version {SNAPSHOT_VERSION} at offset 12"
        )

    def test_bad_magic_rejected(self, tmp_path):
        target = tmp_path / "s.snap"
        target.write_bytes(b"NOTASNAPSHOT" + b"\x00" * 64)
        with pytest.raises(SnapshotError, match="bad magic"):
            load_snapshot(target)

    def test_missing_file_raises_snapshot_error(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot open"):
            load_snapshot(tmp_path / "absent.snap")

    def test_header_must_describe_a_shard(self, tmp_path):
        target = tmp_path / "s.snap"
        write_snapshot(target, {"not_a_shard": True}, [])
        with pytest.raises(SnapshotError, match="header does not describe a shard"):
            Shard.restore(target)


class TestServiceRoundTrip:
    def build_service(self):
        service = ServeService(SPEC, num_shards=3)
        for key, pattern in PATTERNS.items():
            for _ in range(12):
                for sender, nbytes in pattern:
                    service.observe(key, sender, nbytes)
        return service

    def answers(self, service):
        return {key: service.predict(key) for key in PATTERNS}

    def test_restore_reproduces_service(self, tmp_path):
        service = self.build_service()
        manifest = service.snapshot(tmp_path)
        assert manifest["streams"] == len(PATTERNS)
        assert len(list(iter_snapshot_files(tmp_path))) == 3
        restored = ServeService.restore(tmp_path)
        assert restored.num_shards == 3
        assert self.answers(restored) == self.answers(service)
        assert restored.stats()["observations"] == service.stats()["observations"]

    def test_manifest_written_last(self, tmp_path):
        self.build_service().snapshot(tmp_path)
        names = {p.name for p in tmp_path.iterdir()}
        assert MANIFEST_NAME in names
        assert not any(name.endswith(".tmp") for name in names)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot open"):
            ServeService.restore(tmp_path)

    def test_wrong_manifest_format_rejected(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"format": "other"}))
        with pytest.raises(SnapshotError, match="not a repro-serve-manifest"):
            ServeService.restore(tmp_path)

    def test_future_manifest_version_rejected(self, tmp_path):
        service = self.build_service()
        service.snapshot(tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        manifest["version"] = 99
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="newer than the supported version"):
            ServeService.restore(tmp_path)

    def test_cli_refuses_a_version_1_directory_in_one_line(self, tmp_path, monkeypatch, capsys):
        self.build_service().snapshot(tmp_path)
        for shard_file in iter_snapshot_files(tmp_path):
            data = bytearray(shard_file.read_bytes())
            struct.pack_into("<I", data, 12, 1)
            shard_file.write_bytes(data)
        unread = io.StringIO('{"op": "flush"}\n')
        monkeypatch.setattr("sys.stdin", unread)
        assert cli_main(["serve", "--stdin", "--restore", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and unread.tell() == 0
        assert captured.err.startswith("cannot build the serve service: snapshot ")
        assert "format version 1 refused" in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_shard_count_mismatch_rejected(self, tmp_path):
        service = self.build_service()
        service.snapshot(tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        manifest["shards"] = manifest["shards"][:-1]
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="num_shards"):
            ServeService.restore(tmp_path)

    def test_shard_identity_mismatch_rejected(self, tmp_path):
        service = self.build_service()
        service.snapshot(tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        # Swap two shard files: their headers no longer match their position.
        manifest["shards"][0], manifest["shards"][1] = (
            manifest["shards"][1],
            manifest["shards"][0],
        )
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="does not match its manifest position"):
            ServeService.restore(tmp_path)
