"""Tests for the versioned shard snapshot format (repro.serve.snapshot).

The contract: snapshot → restore → bit-identical subsequent predictions
(shard level and whole-service level); every structural violation —
corruption, truncation, a future format version — raises a
:class:`SnapshotError` naming the file, the shard and the byte offset of
the damage; and writes are atomic (tmp + rename, manifest last).
"""

import hashlib
import io
import json
import shutil
import struct
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.serve.service import MANIFEST_NAME, ServeService
from repro.serve.shard import Shard
from repro.serve.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
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
            "repro.serve.snapshot.thaw_record", lambda blob: pytest.fail("unpickled a v1 record")
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
        assert len(list(tmp_path.glob("shard-*.snap"))) == 3
        restored = ServeService.restore(tmp_path)
        assert restored.num_shards == 3
        assert self.answers(restored) == self.answers(service)
        assert restored.stats()["observations"] == service.stats()["observations"]
        assert restored.stats()["streams"] == service.stats()["streams"] == len(PATTERNS)

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
        for shard_file in tmp_path.glob("shard-*.snap"):
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


class TestFormatRefusals:
    def test_version_2_refused_before_any_record_is_decoded(self, tmp_path, monkeypatch):
        target = tmp_path / "shard-00.snap"
        build_shard().snapshot(target)
        data = bytearray(target.read_bytes())
        struct.pack_into("<I", data, 12, 2)  # the pickled-record layout
        target.write_bytes(data)
        monkeypatch.setattr(
            "repro.serve.snapshot.thaw_record", lambda blob: pytest.fail("decoded a v2 record")
        )
        with pytest.raises(SnapshotError) as excinfo:
            load_snapshot(target)
        assert str(excinfo.value) == (
            f"snapshot {target}: format version 2 refused: this build reads only "
            f"the supported version {SNAPSHOT_VERSION} at offset 12"
        )

    def test_a_header_that_is_not_an_object_is_refused(self, tmp_path):
        target = tmp_path / "shard-00.snap"
        header = b"[1, 2]"
        target.write_bytes(
            b"REPROSRVSNAP" + struct.pack("<II", SNAPSHOT_VERSION, len(header)) + header
            + b"REPROSRVEND\n"
        )
        with pytest.raises(SnapshotError, match="header is a JSON list, not an object"):
            load_snapshot(target)

    def test_a_stream_configured_unlike_the_header_is_refused(self, tmp_path):
        target = tmp_path / "shard-00.snap"
        other = Shard(0, 1, "periodicity:window=6,max_period=12,horizon=9")
        other.observe("alpha", 1, 100)
        write_snapshot(target, build_shard()._header(), [("alpha", other.table.get("alpha").predictor)])
        with pytest.raises(SnapshotError, match="'alpha' is not configured as the header's predictor"):
            Shard.restore(target)


MALFORMED_MANIFESTS = {
    "a JSON list": (b"[1, 2]", "manifest is a JSON list, not an object"),
    "not UTF-8": (b'{"format": "\xff"}', "corrupt manifest"),
    "a string version": (None, "manifest version 'x' is not the supported version"),
    "an int for shards": (None, "manifest shards must be a list of {file, sha256} objects"),
    "a path for a shard file": (None, "manifest shards must be a list of {file, sha256} objects"),
    "version 1": (None, "manifest version 1 is not the supported version 2"),
}


class TestManifestRefusals:
    def write(self, tmp_path, case):
        ServeService(SPEC, num_shards=2).snapshot(tmp_path)
        path = tmp_path / MANIFEST_NAME
        raw, _ = MALFORMED_MANIFESTS[case]
        if raw is None:
            manifest = json.loads(path.read_text())
            if case == "a string version":
                manifest["version"] = "x"
            elif case == "an int for shards":
                manifest["shards"] = 5
            elif case == "a path for a shard file":
                manifest["shards"][0]["file"] = "../shard-00.snap"
            else:
                manifest["version"] = 1
            raw = json.dumps(manifest).encode()
        path.write_bytes(raw)
        return path

    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
    def test_refused_with_the_file_named(self, tmp_path, case):
        path = self.write(tmp_path, case)
        with pytest.raises(SnapshotError) as excinfo:
            ServeService.restore(tmp_path)
        assert str(excinfo.value).startswith(f"snapshot {path}: ")
        assert MALFORMED_MANIFESTS[case][1] in str(excinfo.value)

    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
    def test_cli_answers_in_one_line(self, tmp_path, case, monkeypatch, capsys):
        path = self.write(tmp_path, case)
        monkeypatch.setattr("sys.stdin", io.StringIO('{"op": "flush"}\n'))
        assert cli_main(["serve", "--stdin", "--restore", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot build the serve service: snapshot {path}: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def build_keyed_service():
    service = ServeService(SPEC, num_shards=3)
    for index in range(7):
        for step in range(20):
            service.observe(f"k{index}", (index + step) % 3, 64 * (step % 2))
    return service


class TestInterruptedSnapshot:
    def test_a_crash_between_shard_files_is_refused_not_mixed(self, tmp_path, monkeypatch):
        service = build_keyed_service()
        service.snapshot(tmp_path)
        for index in range(7):
            service.observe(f"k{index}", 9, 9)  # the next snapshot differs in every shard
        written = []

        def crash_on_the_second_shard(path, header, streams):
            if written:
                raise OSError("disk went away")
            written.append(path)
            return write_snapshot(path, header, streams)

        monkeypatch.setattr("repro.serve.shard.write_snapshot", crash_on_the_second_shard)
        with pytest.raises(OSError):
            service.snapshot(tmp_path)
        with pytest.raises(SnapshotError) as excinfo:
            ServeService.restore(tmp_path)
        assert excinfo.value.path == str(written[0])
        assert "sha256 differs from the one the manifest records" in str(excinfo.value)

    def test_snapshots_are_byte_reproducible(self, tmp_path):
        build_keyed_service().snapshot(tmp_path / "a")
        build_keyed_service().snapshot(tmp_path / "b")
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def record_spans(data: bytes) -> list[tuple[int, int, int]]:
    """``(record offset, blob offset, blob length)`` of every stream record."""
    (header_len,) = struct.unpack_from("<I", data, 16)
    offset = 20 + header_len
    spans = []
    for _ in range(json.loads(data[20:offset])["streams"]):
        start = offset
        (key_len,) = struct.unpack_from("<I", data, offset)
        (blob_len,) = struct.unpack_from("<I", data, offset + 4 + key_len)
        offset += 12 + key_len
        spans.append((start, offset, blob_len))
        offset += blob_len
    return spans


@pytest.fixture(scope="module")
def snapshot_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("template")
    build_keyed_service().snapshot(directory)
    return directory


def restore_mutated(template: Path, mutate) -> ServeService | None:
    """Restore a copy of ``template`` whose shard 0 went through ``mutate``
    (manifest digest updated to match); None when it is refused."""
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(shutil.copytree(template, Path(tmp) / "snap"))
        shard_file = directory / "shard-00.snap"
        shard_file.write_bytes(mutate(shard_file.read_bytes()))
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        manifest["shards"][0]["sha256"] = hashlib.sha256(shard_file.read_bytes()).hexdigest()
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
        try:
            load_snapshot(shard_file)
        except SnapshotError:
            pass
        try:
            return ServeService.restore(directory)
        except SnapshotError:
            return None


def assert_answers(service: ServeService | None) -> None:
    if service is None:
        return
    for shard in service.shards:
        for key in list(shard.table.keys()):
            assert service.predict(key) is not None
            assert service.expects(key, 1) is not None
    service.stats()


class TestHostileSnapshots:
    @given(st.binary(max_size=400))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes(self, snapshot_dir, blob):
        assert_answers(restore_mutated(snapshot_dir, lambda data: blob))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_bit_flips_behind_a_valid_crc(self, snapshot_dir, data):
        spans = record_spans((snapshot_dir / "shard-00.snap").read_bytes())
        _, blob_offset, blob_len = data.draw(st.sampled_from(spans))
        bit = data.draw(st.integers(0, 8 * blob_len - 1))

        def flip(raw: bytes) -> bytes:
            raw = bytearray(raw)
            raw[blob_offset + bit // 8] ^= 1 << (bit % 8)
            blob = bytes(raw[blob_offset : blob_offset + blob_len])
            struct.pack_into("<I", raw, blob_offset - 4, zlib.crc32(blob))
            return bytes(raw)

        assert_answers(restore_mutated(snapshot_dir, flip))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_bit_flips_anywhere(self, snapshot_dir, data):
        size = len((snapshot_dir / "shard-00.snap").read_bytes())
        bit = data.draw(st.integers(0, 8 * size - 1))

        def flip(raw: bytes) -> bytes:
            raw = bytearray(raw)
            raw[bit // 8] ^= 1 << (bit % 8)
            return bytes(raw)

        assert_answers(restore_mutated(snapshot_dir, flip))

    def test_a_key_that_routes_to_another_shard_is_refused(self, snapshot_dir):
        # A record's key is not under its CRC: a damaged one must not restore
        # a stream that no query would ever route to.
        data = (snapshot_dir / "shard-00.snap").read_bytes()
        key_offset = record_spans(data)[0][0] + 4
        (key_len,) = struct.unpack_from("<I", data, key_offset - 4)
        key = data[key_offset : key_offset + key_len]
        moved = next(
            bytes([letter]) + key[1:]
            for letter in range(ord("a"), ord("z") + 1)
            if zlib.crc32(bytes([letter]) + key[1:]) % 3 != 0
        )

        def rename(raw: bytes) -> bytes:
            return raw[:key_offset] + moved + raw[key_offset + key_len :]

        assert restore_mutated(snapshot_dir, rename) is None

    def test_truncation_at_every_record_boundary(self, snapshot_dir):
        data = (snapshot_dir / "shard-00.snap").read_bytes()
        boundaries = [start for start, _, _ in record_spans(data)] + [len(data) - 12]
        assert len(boundaries) > 2
        for end in boundaries:
            path = snapshot_dir.parent / "truncated.snap"
            path.write_bytes(data[:end])
            with pytest.raises(SnapshotError, match="truncated"):
                load_snapshot(path)
            assert restore_mutated(snapshot_dir, lambda raw: raw[:end]) is None
