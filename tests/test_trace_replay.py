"""Round-trip and importer tests for the trace-driven replay workload.

The replay contract (:mod:`repro.workloads.replay`): running any workload,
saving its traces, and replaying the file reproduces every receiver's
logical ``(sender, tag, nbytes)`` sequence exactly — on every engine, on
both the generator and compiled paths, deterministically.  The DUMPI-style
text importer (:mod:`repro.trace.import_dumpi`) feeds the same pipeline and
rejects malformed input with pointed, line-numbered errors.
"""

import os
from pathlib import Path

import pytest

from repro.scenario import WorkloadSpec
from repro.sim.engine import Simulator
from repro.sim.registry import create_network
from repro.trace.io import save_traces
from repro.trace.import_dumpi import DumpiParseError, load_dumpi, parse_dumpi
from repro.workloads.compile import compile_info, compile_rank_lanes
from repro.workloads.registry import create_workload
from repro.workloads.replay import ReplayWorkload

#: Deterministic network used everywhere (positive latency so a partitioned
#: run engages rather than falling back).
NETWORK = create_network("noiseless", latency=25e-6)

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SAMPLE_V2 = EXAMPLES / "sample_trace.jsonl"
SAMPLE_DUMPI = EXAMPLES / "sample_trace.dumpi"


def simulate(workload, *, engine="scalar", compiled=False, seed=7, engine_jobs=1):
    simulator = Simulator(
        nprocs=workload.nprocs,
        seed=seed,
        network=NETWORK,
        engine=engine,
        engine_jobs=engine_jobs,
    )
    return simulator.run([workload.program_for if compiled else workload.program])


def logical_streams(result):
    """Per-rank logical ``(sender, tag, nbytes)`` sequences."""
    streams = {}
    for rank in range(result.nprocs):
        logical = result.trace_for(rank).logical
        streams[rank] = [
            (r.sender, r.tag, r.nbytes) for r in logical if r.sender >= 0
        ]
    return streams


def fingerprint(result):
    traces = [
        (list(result.trace_for(r).logical), list(result.trace_for(r).physical))
        for r in range(result.nprocs)
    ]
    return (
        result.makespan,
        result.rank_finish_times,
        result.events_processed,
        result.stats.summary(),
        traces,
    )


# ----------------------------------------------------------------------
# v2 round trips: registry workload -> save -> replay:file=
# ----------------------------------------------------------------------
ROUND_TRIP_CELLS = [
    ("ring-exchange", {"nprocs": 4, "iterations": 3}),
    ("collective-mix", {"nprocs": 4, "iterations": 2}),
    ("random-sender", {"nprocs": 5, "iterations": 4}),
]


class TestV2RoundTrip:
    @pytest.mark.parametrize(
        "name,params", ROUND_TRIP_CELLS, ids=[c[0] for c in ROUND_TRIP_CELLS]
    )
    def test_replay_reproduces_logical_streams(self, tmp_path, name, params):
        source = create_workload(name, **params)
        run = simulate(source)
        recorded = logical_streams(run)
        path = tmp_path / "trace.jsonl"
        assert save_traces(run.tracer, path) > 0

        replay = create_workload("replay", nprocs=0, file=str(path))
        assert replay.nprocs == source.nprocs
        replayed = logical_streams(simulate(replay))
        assert replayed == recorded

    def test_structure_only_replay_keeps_the_streams(self, tmp_path):
        source = create_workload("ring-exchange", nprocs=4, iterations=3)
        run = simulate(source)
        path = tmp_path / "trace.jsonl"
        save_traces(run.tracer, path)
        replay = create_workload("replay", nprocs=0, file=str(path), time_scale=0)
        result = simulate(replay)
        assert logical_streams(result) == logical_streams(run)
        # Collapsed timeline: no recorded pacing, so the replay is faster.
        assert result.makespan <= run.makespan

    def test_extra_ranks_replay_empty_programs(self, tmp_path):
        source = create_workload("ring-exchange", nprocs=3, iterations=2)
        run = simulate(source)
        path = tmp_path / "trace.jsonl"
        save_traces(run.tracer, path)
        replay = create_workload("replay", nprocs=5, file=str(path))
        result = simulate(replay)
        assert result.nprocs == 5
        streams = logical_streams(result)
        assert streams[3] == [] and streams[4] == []
        assert {r: s for r, s in streams.items() if r < 3} == logical_streams(run)


# ----------------------------------------------------------------------
# Replay programs land on the op-array fast lane, on every engine
# ----------------------------------------------------------------------
class TestReplayExecution:
    def test_replay_compiles(self):
        replay = create_workload("replay", nprocs=0, file=str(SAMPLE_V2))
        for rank in range(replay.nprocs):
            assert compile_rank_lanes(replay, rank) is not None
        info = compile_info(replay, 0)
        assert info["compiled"] is True and info["ops"] > 0

    def test_compiled_matches_generator(self):
        replay = create_workload("replay", nprocs=0, file=str(SAMPLE_V2))
        generator = simulate(replay, compiled=False)
        compiled = simulate(replay, compiled=True)
        assert fingerprint(compiled) == fingerprint(generator)

    @pytest.mark.parametrize("engine_jobs", [1, 2])
    def test_engines_match_scalar(self, engine_jobs):
        replay = create_workload("replay", nprocs=0, file=str(SAMPLE_V2))
        baseline = fingerprint(simulate(replay, engine="scalar", compiled=True))
        result = simulate(replay, engine="auto", compiled=True, engine_jobs=engine_jobs)
        assert fingerprint(result) == baseline

    def test_two_runs_are_identical(self):
        replay = create_workload("replay", nprocs=0, file=str(SAMPLE_V2))
        first = fingerprint(simulate(replay))
        second = fingerprint(simulate(replay))
        assert first == second

    def test_shorthand_spec_round_trips(self):
        spec = WorkloadSpec.from_shorthand(f"replay:file={SAMPLE_V2}")
        assert spec.name == "replay" and spec.nprocs == 0
        workload = spec.build()
        assert isinstance(workload, ReplayWorkload)
        assert workload.nprocs == workload.trace_nprocs == 4
        # The digest pins the schedule-cache identity to the file content.
        assert len(workload.parameters()["digest"]) == 64


# ----------------------------------------------------------------------
# Replay construction errors
# ----------------------------------------------------------------------
class TestReplayErrors:
    def test_file_is_required(self):
        with pytest.raises(ValueError, match="needs a trace file"):
            ReplayWorkload(nprocs=4)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            ReplayWorkload(file="no/such/trace.jsonl")

    def test_nprocs_below_trace_count(self):
        with pytest.raises(ValueError, match="smaller than the trace's process count"):
            ReplayWorkload(nprocs=2, file=str(SAMPLE_V2))

    def test_negative_time_scale(self):
        with pytest.raises(ValueError, match="time_scale must be non-negative"):
            ReplayWorkload(file=str(SAMPLE_V2), time_scale=-1)

    def test_empty_file_reports_no_events(self, tmp_path):
        path = tmp_path / "empty.dumpi"
        path.write_text("# only a comment\n\n")
        with pytest.raises(DumpiParseError, match="no events"):
            ReplayWorkload(file=str(path))


# ----------------------------------------------------------------------
# DUMPI importer
# ----------------------------------------------------------------------
class TestDumpiImporter:
    def test_sample_file_parses(self):
        nprocs, receives = load_dumpi(SAMPLE_DUMPI)
        assert nprocs == 3
        assert sorted(receives) == [0, 2]
        assert len(receives[0]) == 4 and len(receives[2]) == 2
        first = receives[0][0]
        assert (first.sender, first.nbytes, first.tag) == (1, 1024, 7)
        assert [event.seq for event in receives[0]] == [0, 1, 2, 3]

    def test_sample_file_replays(self):
        replay = create_workload("replay", nprocs=0, file=str(SAMPLE_DUMPI))
        assert replay.nprocs == 3
        result = simulate(replay)
        streams = logical_streams(result)
        assert streams[0] == [(1, 7, 1024), (2, 7, 2048)] * 2
        assert streams[2] == [(1, 9, 256)] * 2

    def test_meta_nprocs_widens_the_job(self, tmp_path):
        path = tmp_path / "wide.dumpi"
        path.write_text("meta nprocs 6\n0 0.1 MPI_Recv src=1 tag=0 bytes=8\n")
        nprocs, receives = load_dumpi(path)
        assert nprocs == 6 and list(receives) == [0]

    @pytest.mark.parametrize(
        "lines,line_number,pattern",
        [
            (["0 0.1"], 1, "truncated event line"),
            (["x 0.1 MPI_Recv src=1 tag=0 bytes=8"], 1, "not an integer"),
            (["0 huh MPI_Recv src=1 tag=0 bytes=8"], 1, "not a number"),
            (["0 -0.5 MPI_Recv src=1 tag=0 bytes=8"], 1, "must be non-negative"),
            (["0 0.1 MPI_Recv tag=0 bytes=8"], 1, "missing required src="),
            (["0 0.1 MPI_Isend tag=0 bytes=8"], 1, "missing required dest="),
            (["0 0.1 MPI_Recv src=1 tag=0 bytes=8 tag=2"], 1, "duplicate argument"),
            (["0 0.1 MPI_Recv src=1 tag=0 bogus"], 1, "expected key=value"),
            (["0 0.1 Compute src=1 tag=0 bytes=8"], 1, "does not start with 'MPI_'"),
            (["0 0.1 MPI_Barrier", "meta nprocs 2"], 2, "meta header after the first event"),
            (["meta ranks 2"], 1, "unrecognised meta line"),
            (["meta nprocs 0"], 1, "meta nprocs must be positive"),
            (["# nothing"], 1, "no events"),
            (["meta nprocs 2", "", "0 0.1 MPI_Recv src=5 tag=0 bytes=8"], 1,
             "meta nprocs 2 but trace references rank 5"),
        ],
        ids=[
            "truncated", "bad-rank", "bad-time", "negative-time", "missing-src",
            "missing-dest", "duplicate-kv", "bare-token", "non-mpi-call",
            "meta-after-event", "bad-meta", "zero-nprocs", "empty", "rank-overflow",
        ],
    )
    def test_malformed_input_raises_with_line_number(self, lines, line_number, pattern):
        with pytest.raises(DumpiParseError, match=pattern) as excinfo:
            parse_dumpi(lines)
        assert excinfo.value.line_number == line_number
        assert f"line {line_number}:" in str(excinfo.value)

    def test_non_replayable_calls_are_skipped(self):
        nprocs, receives = parse_dumpi(
            [
                "0 0.0 MPI_Init",
                "1 0.1 MPI_Isend dest=0 tag=4 bytes=64",
                "0 0.2 MPI_Recv src=1 tag=4 bytes=64",
                "0 0.3 MPI_Waitall",
                "0 0.4 MPI_Finalize",
            ]
        )
        assert nprocs == 2
        assert [tuple(e) for e in receives[0]] == [(1, 64, 4, 0, 0.2, 0)]
