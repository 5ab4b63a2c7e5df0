"""Tests for trace persistence (repro.trace.io)."""

import json

import pytest

from repro.cli import main
from repro.sim.engine import Simulator
from repro.trace.io import load_traces, save_traces
from repro.trace.streams import sender_stream
from repro.workloads.registry import create_workload


@pytest.fixture(scope="module")
def small_run():
    workload = create_workload("ring-exchange", nprocs=4, iterations=8)
    result = Simulator(workload.nprocs, seed=3).run([workload.program_for])
    return workload, result


_HEADER = {"format": "repro-trace", "version": 2, "nprocs": 1, "metadata": {}}
_EMPTY = {field: [] for field in ("sender", "nbytes", "tag", "kind_code", "time", "seq")}
_RANK0 = {"rank": 0, "logical": _EMPTY, "physical": _EMPTY}


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


#: Files whose lines parse as JSON but not as a trace: (lines, the 1-based
#: line at fault, what the message must name).
MALFORMED = [
    pytest.param([[1, 2]], 1, "header must be a JSON object", id="header-is-a-list"),
    pytest.param([_without(_HEADER, "nprocs")], 1, "nprocs", id="nprocs-absent"),
    pytest.param([{**_HEADER, "nprocs": "4"}], 1, "nprocs", id="nprocs-not-an-integer"),
    pytest.param([{**_HEADER, "nprocs": 0}], 1, "nprocs >= 1", id="nprocs-below-one"),
    pytest.param([_HEADER, [0]], 2, "rank line must be a JSON object", id="rank-line-is-a-list"),
    pytest.param([_HEADER, {}], 2, "'rank'", id="rank-absent"),
    pytest.param([_HEADER, _without(_RANK0, "logical")], 2, "'logical'", id="logical-absent"),
    pytest.param([_HEADER, _RANK0, _without(_RANK0, "physical")], 3, "'physical'", id="physical-absent"),
]


def _write_lines(path, lines):
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return str(path)


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

    def test_version_1_refused(self, tmp_path):
        # The per-record format's writer went at PR 13; its reader followed.
        path = _write_lines(tmp_path / "v1.jsonl", [{**_HEADER, "version": 1}])
        with pytest.raises(ValueError) as excinfo:
            load_traces(path)
        assert str(excinfo.value) == (
            "unsupported trace format version 1 (this build reads version 2)"
        )

    @pytest.mark.parametrize("lines, lineno, names", MALFORMED)
    def test_malformed_shape_names_the_line(self, tmp_path, lines, lineno, names):
        path = _write_lines(tmp_path / "bad.jsonl", lines)
        with pytest.raises(ValueError, match=f"^line {lineno}: ") as excinfo:
            load_traces(path)
        assert names in str(excinfo.value)

    @pytest.mark.parametrize("lines, lineno, names", MALFORMED)
    @pytest.mark.parametrize("route", ["predict", "replay"])
    def test_malformed_file_is_one_line_on_the_cli(
        self, tmp_path, capsys, route, lines, lineno, names
    ):
        path = _write_lines(tmp_path / "bad.jsonl", lines)
        argv = ["predict", "--traces", path] if route == "predict" else ["run", f"replay:file={path}"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.startswith(f"cannot run scenario: line {lineno}: ")
        if route == "predict":  # replay sniffs a file not starting "{" as DUMPI text
            assert names in captured.err
        assert captured.err.count("\n") == 1

    def test_duplicate_v2_rank_rejected(self, small_run, tmp_path):
        _, result = small_run
        path = tmp_path / "dup.jsonl"
        save_traces(result.tracer, path)
        lines = path.read_text().splitlines()
        # header, ranks 0-3, then rank 1 again on line 6
        path.write_text("\n".join([*lines, lines[2]]) + "\n")
        with pytest.raises(ValueError, match="duplicate trace rank 1 on line 6"):
            load_traces(path)
