"""Tests for trace persistence (repro.trace.io)."""

import json

import pytest

from repro.sim.engine import Simulator
from repro.trace.io import load_traces, save_traces
from repro.trace.streams import sender_stream
from repro.workloads.registry import create_workload


@pytest.fixture(scope="module")
def small_run():
    workload = create_workload("ring-exchange", nprocs=4, iterations=8)
    result = Simulator(workload.nprocs, seed=3).run([workload.program_for])
    return workload, result


def _v1_record(level, receiver=0, sender=1, time=1.0, seq=0):
    """One line of a version-1 file, as the retired writer spelled it."""
    return {
        "receiver": receiver,
        "sender": sender,
        "nbytes": 10,
        "tag": 0,
        "kind": "p2p",
        "time": time,
        "seq": seq,
        "level": level,
    }


def _write_v1(path, nprocs, records, metadata=None):
    header = {
        "format": "repro-trace",
        "version": 1,
        "nprocs": nprocs,
        "metadata": metadata or {},
    }
    lines = [json.dumps(header), *(json.dumps(record) for record in records)]
    path.write_text("\n".join(lines) + "\n")


class TestSaveLoadRoundtrip:
    def test_roundtrip_preserves_all_records(self, small_run, tmp_path):
        workload, result = small_run
        path = tmp_path / "traces.jsonl"
        written = save_traces(result.tracer, path, metadata={"workload": workload.name})
        traces, metadata = load_traces(path)

        assert metadata == {"workload": workload.name}
        assert len(traces) == 4
        assert written == sum(len(t.logical) + len(t.physical) for t in traces)
        for rank in range(4):
            original = result.trace_for(rank)
            restored = traces[rank]
            assert [(r.sender, r.nbytes, r.seq) for r in original.logical] == [
                (r.sender, r.nbytes, r.seq) for r in restored.logical
            ]
            assert [(r.sender, r.nbytes, r.time) for r in original.physical] == [
                (r.sender, r.nbytes, r.time) for r in restored.physical
            ]

    def test_streams_equal_after_roundtrip(self, small_run, tmp_path):
        _, result = small_run
        path = tmp_path / "traces.jsonl"
        save_traces(result.tracer, path)
        traces, _ = load_traces(path)
        assert sender_stream(traces[0].logical).tolist() == sender_stream(
            result.trace_for(0).logical
        ).tolist()

    def test_default_metadata_is_empty_dict(self, small_run, tmp_path):
        _, result = small_run
        path = tmp_path / "t.jsonl"
        save_traces(result.tracer, path)
        _, metadata = load_traces(path)
        assert metadata == {}

    def test_columnar_format_is_one_object_per_rank(self, small_run, tmp_path):
        _, result = small_run
        path = tmp_path / "t.jsonl"
        save_traces(result.tracer, path)
        lines = path.read_text().strip().splitlines()
        header = json.loads(lines[0])
        assert header["version"] == 2
        # header + one columnar object per rank, regardless of record count
        assert len(lines) == 1 + result.nprocs
        body = json.loads(lines[1])
        assert set(body) == {"rank", "logical", "physical"}
        assert set(body["logical"]) == {"sender", "nbytes", "tag", "kind_code", "time", "seq"}

    def test_full_record_equality_after_roundtrip(self, small_run, tmp_path):
        _, result = small_run
        path = tmp_path / "t.jsonl"
        save_traces(result.tracer, path)
        traces, _ = load_traces(path)
        for rank in range(result.nprocs):
            original = result.trace_for(rank)
            assert list(original.logical) == list(traces[rank].logical)
            assert list(original.physical) == list(traces[rank].physical)


class TestLegacyFormatCompatibility:
    """Version-1 (one JSON object per record) files stay loadable."""

    def test_v1_file_loads_identically(self, small_run, tmp_path):
        _, result = small_run
        v1 = tmp_path / "v1.jsonl"
        v2 = tmp_path / "v2.jsonl"
        records = [
            {**record._asdict(), "level": level}
            for rank in range(result.nprocs)
            for level in ("logical", "physical")
            for record in getattr(result.trace_for(rank), level)
        ]
        _write_v1(v1, result.nprocs, records, metadata={"origin": "legacy"})
        save_traces(result.tracer, v2)
        legacy_traces, legacy_meta = load_traces(v1)
        columnar_traces, _ = load_traces(v2)
        assert legacy_meta == {"origin": "legacy"}
        for old, new in zip(legacy_traces, columnar_traces):
            assert list(old.logical) == list(new.logical)
            assert list(old.physical) == list(new.physical)

    def test_v1_records_route_by_receiver_and_sort(self, tmp_path):
        path = tmp_path / "v1.jsonl"
        _write_v1(
            path,
            2,
            [
                _v1_record("logical", receiver=0, sender=2, time=2.0, seq=1),
                _v1_record("logical", receiver=0, sender=1, time=1.0, seq=0),
                _v1_record("physical", receiver=1, sender=0),
            ],
        )
        with path.open("a") as handle:
            handle.write("\n")  # blank lines are skipped
        traces, _ = load_traces(path)
        assert [r.sender for r in traces[0].logical] == [1, 2]
        assert traces[0].physical == []
        assert traces[1].logical == []
        assert [r.sender for r in traces[1].physical] == [0]

    @pytest.mark.parametrize("level", ["weird", "Logical", "phys"])
    def test_unknown_level_rejected(self, tmp_path, level):
        path = tmp_path / "v1.jsonl"
        _write_v1(path, 1, [_v1_record("logical"), _v1_record(level, seq=1)])
        with pytest.raises(ValueError, match=f"unknown trace level {level!r} on line 3"):
            load_traces(path)


class TestFormatValidation:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_traces(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"format": "something-else"}) + "\n")
        with pytest.raises(ValueError, match="not a repro trace file"):
            load_traces(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"format": "repro-trace", "version": 99, "nprocs": 1}) + "\n")
        with pytest.raises(ValueError, match="version"):
            load_traces(path)

    def test_out_of_range_receiver_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        _write_v1(path, 1, [_v1_record("logical", receiver=5)])
        with pytest.raises(ValueError, match="out of range"):
            load_traces(path)

    def test_duplicate_v2_rank_rejected(self, small_run, tmp_path):
        _, result = small_run
        path = tmp_path / "dup.jsonl"
        save_traces(result.tracer, path)
        lines = path.read_text().splitlines()
        # header, ranks 0-3, then rank 1 again on line 6
        path.write_text("\n".join([*lines, lines[2]]) + "\n")
        with pytest.raises(ValueError, match="duplicate trace rank 1 on line 6"):
            load_traces(path)
