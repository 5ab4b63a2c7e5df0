"""Microbenchmarks of the predictor, simulator and trace-plane hot paths.

These are not paper artefacts; they document the runtime cost of the pieces a
real MPI library would embed (the paper stresses that "to have a small
overhead is important since prediction has to be done at runtime") and the
throughput of the simulation substrate itself.
"""

from __future__ import annotations

import io
import itertools
import json
import os

import numpy as np
import pytest

from repro.core.dpd import DynamicPeriodicityDetector
from repro.core.evaluation import evaluate_stream
from repro.core.predictor import PeriodicityPredictor
from repro.scenario import Scenario, ScenarioSpec
from repro.sim.engine import Simulator
from repro.sim.network import NetworkConfig
from repro.workloads.registry import create_workload

PATTERN = [1, 2, 5, 7, 9, 1, 2, 5, 7, 9, 1, 2, 5, 7, 9, 1, 2, 5] * 200  # period 18


class TestPredictorMicrobenchmarks:
    def test_bench_dpd_observe_detect(self, benchmark):
        """Cost of one observe+detect cycle (the per-message runtime overhead)."""

        detector = DynamicPeriodicityDetector(window_size=24, max_period=256)
        stream = itertools.cycle(PATTERN)

        def step():
            detector.observe(next(stream))
            return detector.detect()

        result = benchmark(step)
        assert result is not None

    def test_bench_predictor_observe_predict(self, benchmark):
        """Cost of one observe+predict(5) cycle of the full predictor."""

        predictor = PeriodicityPredictor(window_size=24, max_period=256)
        stream = itertools.cycle(PATTERN)

        def step():
            predictor.observe(next(stream))
            return predictor.predict(5)

        predictions = benchmark(step)
        assert len(predictions) == 5

    def test_bench_evaluate_stream_throughput(self, benchmark):
        """Whole-stream offline evaluation (used by Figures 3 and 4)."""

        stream = np.array(PATTERN, dtype=np.int64)

        def run():
            return evaluate_stream(
                stream,
                lambda: PeriodicityPredictor(window_size=24, max_period=256),
                horizon=5,
            )

        result = benchmark.pedantic(run, rounds=3, iterations=1)
        assert result.accuracy(1) > 0.9

    def test_bench_dpd_distance_computation(self, benchmark):
        """Snapshotting the incrementally maintained distances (O(M) copy)."""

        detector = DynamicPeriodicityDetector(window_size=64, max_period=256)
        for value in PATTERN[: 64 + 256]:
            detector.observe(value)

        distances = benchmark(detector.distances)
        assert distances.size == 256

    def test_bench_dpd_distances_naive(self, benchmark):
        """The pre-refactor full equation-(1) rescan (reference cost)."""

        detector = DynamicPeriodicityDetector(window_size=64, max_period=256)
        for value in PATTERN[: 64 + 256]:
            detector.observe(value)

        distances = benchmark(detector.distances_naive)
        assert distances.size == 256

    def test_bench_dpd_batch_observe(self, benchmark):
        """Amortised per-sample cost of the batch path (trace replay)."""

        chunk = np.array(PATTERN, dtype=np.int64)

        def run():
            detector = DynamicPeriodicityDetector(window_size=24, max_period=256)
            detector.batch_observe(chunk, return_periods=True)
            return detector

        detector = benchmark(run)
        assert detector.samples_seen == chunk.size

    def test_bench_predictor_observe_many(self, benchmark):
        """Vectorised bulk feed of the full predictor (warmup/replay path)."""

        stream = np.array(PATTERN, dtype=np.int64)

        def run():
            predictor = PeriodicityPredictor(window_size=24, max_period=256)
            predictor.observe_many(stream)
            return predictor

        predictor = benchmark(run)
        assert predictor.current_period == 18

    @pytest.mark.parametrize("window", [16, 64, 256])
    def test_bench_dpd_window_scaling(self, benchmark, window):
        """How the per-observation cost scales with the DPD window size."""

        detector = DynamicPeriodicityDetector(window_size=window, max_period=window)
        stream = itertools.cycle(PATTERN)

        def step():
            detector.observe(next(stream))
            return detector.detect()

        benchmark(step)


class TestSimulatorMicrobenchmarks:
    """Engine/transport throughput benchmarks (``-k sim`` selects these).

    The frozen ``BENCH_sim.json`` holds this suite's recorded history, the
    simulator counterpart of the predictor's ``BENCH_dpd.json``; to time it
    today pass pytest-benchmark's own ``--benchmark-json=FILE``.
    """

    def test_bench_sim_event_queue_throughput(self, benchmark):
        """Raw typed-event queue push/pop throughput (no transport)."""
        from repro.sim.events import EVENT_CALLBACK, EventQueue

        def churn():
            queue = EventQueue()
            push = queue.push_typed
            pop = queue.pop
            for i in range(2000):
                push(i * 1e-6, EVENT_CALLBACK, None)
            drained = 0
            while pop() is not None:
                drained += 1
            return drained

        assert benchmark(churn) == 2000

    def test_bench_sim_pingpong_round(self, benchmark):
        """Simulated events per ping-pong round (engine + transport overhead)."""

        def simulate():
            def program(ctx):
                comm = ctx.comm
                other = 1 - ctx.rank
                for i in range(200):
                    if ctx.rank == 0:
                        yield comm.send(other, 1024, tag=i % 8)
                        yield comm.recv(source=other, tag=i % 8)
                    else:
                        yield comm.recv(source=other, tag=i % 8)
                        yield comm.send(other, 1024, tag=i % 8)

            simulator = Simulator(nprocs=2, seed=1, network=NetworkConfig(seed=1))
            return simulator.run([program])

        result = benchmark.pedantic(simulate, rounds=3, iterations=1)
        assert result.stats.messages_sent == 400

    def test_bench_sim_alltoall_fanin(self, benchmark):
        """Collective fan-in cost (pairwise alltoall on 16 ranks)."""

        def simulate():
            def program(ctx):
                for _ in range(5):
                    yield from ctx.comm.alltoall(2048)

            simulator = Simulator(nprocs=16, seed=1, network=NetworkConfig(seed=1))
            return simulator.run([program])

        result = benchmark.pedantic(simulate, rounds=3, iterations=1)
        assert result.stats.collective_messages == 5 * 16 * 15

    def test_bench_sim_burst_prediction(self, benchmark):
        """Online policy consuming a whole delivery burst (observe_batch path)."""
        from repro.predictive.buffer_manager import PredictiveBufferPolicy
        from repro.sim.machine import MachineConfig

        policy = PredictiveBufferPolicy()
        policy.bind(MachineConfig(), 8)
        burst = [(1 + i % 7, 1024 * (1 + i % 3), 0, "p2p") for i in range(64)]

        def run():
            policy.on_burst_delivered(0, burst, 0.0)
            return policy.buffers_held(0)

        held = benchmark(run)
        assert held >= 1

    def test_bench_bt9_simulation(self, benchmark):
        """End-to-end simulation throughput of a small BT run."""
        spec = ScenarioSpec(workload="bt.9:scale=0.05", seed=1)

        def simulate():
            return Scenario(spec).run().result

        result = benchmark.pedantic(simulate, rounds=3, iterations=1)
        assert result.stats.messages_sent > 0


# ----------------------------------------------------------------------
# Trace data plane (``-k trace`` selects these -> BENCH_trace.json)
# ----------------------------------------------------------------------

class _RecordListTracer:
    """The pre-columnar (PR 2 era) record-list tracer, kept as the reference
    implementation the columnar data plane is measured against: hooks append
    raw per-message tuples, ``finalize`` converts every tuple into a
    ``TraceRecord`` and sorts with per-record key callables."""

    def __init__(self, nprocs):
        from repro.trace.records import TraceRecord

        self._make = TraceRecord._make
        self.nprocs = nprocs
        self.logical = [[] for _ in range(nprocs)]
        self.physical = [[] for _ in range(nprocs)]
        self._pending = [dict() for _ in range(nprocs)]
        self._logical_seq = [0] * nprocs
        self._physical_seq = [0] * nprocs

    def on_recv_posted(self, rank, req_id, time):
        seq = self._logical_seq[rank]
        self._logical_seq[rank] = seq + 1
        self._pending[rank][req_id] = (seq, time)

    def on_recv_matched(self, rank, req_id, sender, nbytes, tag, kind, time):
        slot = self._pending[rank].pop(req_id, None)
        if slot is None:
            seq = self._logical_seq[rank]
            self._logical_seq[rank] = seq + 1
        else:
            seq = slot[0]
        self.logical[rank].append((rank, sender, nbytes, tag, kind, time, seq))

    def on_message_arrival(self, rank, sender, nbytes, tag, kind, time):
        seq = self._physical_seq[rank]
        self._physical_seq[rank] = seq + 1
        self.physical[rank].append((rank, sender, nbytes, tag, kind, time, seq))

    def finalize(self):
        make = self._make
        for rank in range(self.nprocs):
            logical = [make(t) for t in self.logical[rank]]
            logical.sort(key=lambda r: r.seq)
            self.logical[rank] = logical
            physical = [make(t) for t in self.physical[rank]]
            physical.sort(key=lambda r: (r.time, r.seq))
            self.physical[rank] = physical


def _trace_messages(nprocs=4, per_rank=1500):
    """Synthetic per-rank message feeds (sender, nbytes, tag, kind, times)."""
    feeds = []
    for rank in range(nprocs):
        messages = []
        for i in range(per_rank):
            sender = (rank + 1 + i % (nprocs - 1)) % nprocs
            nbytes = 512 * (1 + i % 4)
            kind = "collective" if i % 11 == 0 else "p2p"
            post = i * 1e-5
            arrival = post + 2e-6 + (i % 7) * 1e-7 - (i % 3) * 2e-7
            messages.append((sender, nbytes, i % 8, kind, post, arrival, arrival + 1e-6))
        feeds.append(messages)
    return feeds


_TRACE_FEEDS = _trace_messages()


def _drive(tracer):
    """Replay the synthetic feeds through the three tracer hooks."""
    req_id = 0
    for rank, messages in enumerate(_TRACE_FEEDS):
        posted = tracer.on_recv_posted
        arrived = tracer.on_message_arrival
        matched = tracer.on_recv_matched
        for sender, nbytes, tag, kind, post, arrival, match in messages:
            posted(rank, req_id, post)
            arrived(rank, sender, nbytes, tag, kind, arrival)
            matched(rank, req_id, sender, nbytes, tag, kind, match)
            req_id += 1


def _analyse(levels):
    """The per-rank stream/summary extraction both pipelines run."""
    from repro.trace.streams import sender_stream, size_stream, summarize_stream

    out = []
    for records in levels:
        summary = summarize_stream(records)
        out.append(
            (
                sender_stream(records, kinds=["p2p"]).tolist(),
                size_stream(records, kinds=["p2p"]).tolist(),
                summary.p2p_messages,
                summary.collective_messages,
                summary.frequent_senders,
                summary.frequent_sizes,
            )
        )
    return out


def _recordlist_pipeline():
    """Pre-PR data plane: record -> finalize -> per-record streams -> v1 io."""
    from repro.trace.records import TraceRecord

    tracer = _RecordListTracer(nprocs=len(_TRACE_FEEDS))
    _drive(tracer)
    tracer.finalize()
    analysis = _analyse(tracer.logical + tracer.physical)
    # v1 persistence: one JSON object per record.
    handle = io.StringIO()
    for rank in range(tracer.nprocs):
        for level, records in (("logical", tracer.logical[rank]), ("physical", tracer.physical[rank])):
            for record in records:
                payload = record._asdict()
                payload["level"] = level
                handle.write(json.dumps(payload) + "\n")
    handle.seek(0)
    loaded = [[] for _ in range(tracer.nprocs)]
    for line in handle:
        payload = json.loads(line)
        level = payload.pop("level")
        record = TraceRecord(**payload)
        if level == "logical":
            loaded[record.receiver].append(record)
    for records in loaded:
        records.sort(key=lambda r: r.seq)
    return analysis, sum(len(r) for r in loaded)


def _columnar_pipeline():
    """Columnar data plane: scalar-append record -> vectorised everything."""
    from repro.trace.io import load_traces_from, save_traces_to
    from repro.trace.tracer import TwoLevelTracer

    tracer = TwoLevelTracer(nprocs=len(_TRACE_FEEDS))
    _drive(tracer)
    tracer.finalize()
    traces = tracer.traces
    analysis = _analyse([t.logical for t in traces] + [t.physical for t in traces])
    handle = io.StringIO()
    save_traces_to(tracer, handle)
    handle.seek(0)
    loaded, _ = load_traces_from(handle)
    return analysis, sum(len(t.logical) for t in loaded)


class TestTraceMicrobenchmarks:
    """Trace data-plane benchmarks (``-k trace`` selects these).

    The frozen ``BENCH_trace.json`` holds this suite's recorded history.
    """

    def test_bench_trace_pipeline(self, benchmark):
        """Columnar record->finalize->streams->io pipeline vs the pre-PR
        record-list tracer (reference kept in this module): identical output
        asserted here; ``BENCH_trace.json`` records both timings (the
        reference's is the next benchmark), the ratio is not asserted."""
        legacy_out = _recordlist_pipeline()
        columnar_out = _columnar_pipeline()
        assert columnar_out == legacy_out

        analysis, loaded = benchmark(_columnar_pipeline)
        assert loaded == sum(len(m) for m in _TRACE_FEEDS)

    def test_bench_trace_pipeline_recordlist(self, benchmark):
        """Reference cost of the pre-PR record-list pipeline (see above)."""
        analysis, loaded = benchmark(_recordlist_pipeline)
        assert loaded == sum(len(m) for m in _TRACE_FEEDS)

    def test_bench_trace_run_all_sequential(self, benchmark):
        """All 19 paper cells simulated sequentially (small scale)."""
        from repro.analysis.experiments import ExperimentContext

        def run():
            return ExperimentContext(seed=7, scale=0.05).run_all()

        runs = benchmark.pedantic(run, rounds=1, iterations=1)
        assert len(runs) == 19

    def test_bench_trace_run_all_jobs2(self, benchmark):
        """The same 19 cells sharded over two worker processes.

        Bit-identical to the sequential run (asserted in the test suite);
        the speedup depends on the host's core count, so this benchmark only
        records the wall-clock for the perf trajectory.
        """
        from repro.analysis.experiments import ExperimentContext

        def run():
            return ExperimentContext(seed=7, scale=0.05).run_all(jobs=2)

        runs = benchmark.pedantic(run, rounds=1, iterations=1)
        assert len(runs) == 19


# ----------------------------------------------------------------------
# Op-array workload feed (``-k feed`` selects these -> BENCH_feed.json)
# ----------------------------------------------------------------------

def _feed_workload():
    return create_workload("bt", nprocs=9, scale=0.05)


def _feed_run(compiled: bool):
    """One bt9 feed run through the scenario front door."""
    return Scenario(
        ScenarioSpec(workload="bt.9:scale=0.05", seed=1, compiled=compiled)
    ).run().result


def _feed_fingerprint(result):
    traces = []
    for rank in range(result.nprocs):
        trace = result.trace_for(rank)
        traces.append((list(trace.logical), list(trace.physical)))
    return (
        result.makespan,
        result.rank_finish_times,
        result.events_processed,
        result.stats.summary(),
        traces,
    )


class TestFeedMicrobenchmarks:
    """Workload-feed benchmarks (``-k feed`` selects these).

    The frozen ``BENCH_feed.json`` holds this suite's recorded history: the
    op-array fast lane end to end against its own generator-path baseline, plus the
    cold-compile cost.  The compiled numbers are warm-cache (the schedule
    cache persists across rounds, as it does across repeated runs of one
    configuration in a real process); ``test_bench_feed_compile_cold``
    tracks the one-off replay cost a cold process pays.
    """

    def test_bench_feed_bt9_oparray(self, benchmark):
        """End-to-end bt9 through the compiled op-array fast lane.

        Asserts first that the fast lane is bit-identical to the generator
        path, then benchmarks the compiled path; ``BENCH_feed.json`` records this
        timing and the generator baseline's below, the ratio is not asserted
        (a wall-clock ratio does not belong in the correctness gate)."""
        generator_result = _feed_run(compiled=False)
        compiled_result = _feed_run(compiled=True)
        assert _feed_fingerprint(compiled_result) == _feed_fingerprint(generator_result)

        def simulate():
            return _feed_run(compiled=True)

        result = benchmark.pedantic(simulate, rounds=3, iterations=1)
        assert result.stats.messages_sent > 0

    def test_bench_feed_bt9_generator_baseline(self, benchmark):
        """Reference cost of the same bt9 run under the generator protocol."""

        def simulate():
            return _feed_run(compiled=False)

        result = benchmark.pedantic(simulate, rounds=3, iterations=1)
        assert result.stats.messages_sent > 0

    def test_bench_feed_compile_cold(self, benchmark):
        """One-off cost of compiling all nine bt9 rank schedules cold."""
        from repro.workloads.compile import clear_schedule_cache, compile_rank_lanes

        workload = _feed_workload()

        def compile_all():
            clear_schedule_cache()
            return [compile_rank_lanes(workload, rank) for rank in range(workload.nprocs)]

        lanes = benchmark(compile_all)
        assert all(l is not None and len(l) > 0 for l in lanes)

    def test_bench_feed_lu8_oparray(self, benchmark):
        """The message-densest skeleton (LU) through the fast lane."""

        def simulate():
            return Scenario({"workload": "lu.8:scale=0.02", "seed": 1}).run()

        result = benchmark.pedantic(simulate, rounds=3, iterations=1)
        assert result.stats.messages_sent > 0

    def test_bench_feed_collective_mix_oparray(self, benchmark):
        """Collective kernels flattened onto the op-array fast lane.

        The collective coverage workload (one of every algorithm per
        iteration) stresses the compiler's collective lowering: every
        decomposition send/recv becomes a flat lane op.  Bit-identity
        against the generator path is asserted before timing."""
        def run(compiled):
            return Scenario(
                ScenarioSpec(
                    workload="collective-mix.8:iterations=3", seed=1,
                    compiled=compiled,
                )
            ).run().result

        assert _feed_fingerprint(run(True)) == _feed_fingerprint(run(False))

        result = benchmark.pedantic(lambda: run(True), rounds=3, iterations=1)
        assert result.stats.messages_sent > 0

    def test_bench_feed_collective_mix_generator_baseline(self, benchmark):
        """Reference cost of the collective mix under the generator protocol."""

        def simulate():
            return Scenario(
                ScenarioSpec(
                    workload="collective-mix.8:iterations=3", seed=1,
                    compiled=False,
                )
            ).run().result

        result = benchmark.pedantic(simulate, rounds=3, iterations=1)
        assert result.stats.messages_sent > 0

    def test_bench_feed_replay_oparray(self, benchmark):
        """Trace replay (all-upfront irecv/isend program) on the fast lane."""
        trace = os.path.join(
            os.path.dirname(__file__), os.pardir, "examples", "sample_trace.jsonl"
        )

        def simulate():
            return Scenario(
                ScenarioSpec(workload=f"replay:file={trace}", seed=1, compiled=True)
            ).run().result

        result = benchmark.pedantic(simulate, rounds=3, iterations=1)
        assert result.stats.messages_sent > 0


def _record_row(benchmark, info: dict, **per_second) -> None:
    """Attach ``info`` to the row, with wall time and rates when it was timed.

    ``per_second`` maps a rate field to the count it divides by the mean wall
    time.  Under ``--benchmark-disable`` the body runs once untimed and
    ``benchmark.stats`` is None, so only the time-free fields are recorded.
    """
    if benchmark.stats is not None:
        mean = benchmark.stats.stats.mean
        info["wall_s"] = round(mean, 4)
        for name, count in per_second.items():
            info[name] = round(count / mean, 1)
    benchmark.extra_info.update(info)


def _scale_workload(name: str, nprocs: int):
    """Scaling-curve workload: iterations pinned so every size is tractable."""
    return create_workload(
        name, nprocs, iterations=_SCALE_ITERATIONS[nprocs], compute_noise=0.0
    )


def _scale_run(name: str, nprocs: int, engine: str):
    from repro.analysis.scaling import lockstep_scale_configs

    machine, network = lockstep_scale_configs()
    workload = _scale_workload(name, nprocs)
    return Simulator(
        workload.nprocs,
        seed=2003,
        machine=machine,
        network=network,
        tracer=False,
        engine=engine,
    ).run([workload.program_for])


#: Iterations per job size: enough work to time reliably at 64 ranks without
#: making the 4096-rank rows (millions of events per iteration) take minutes.
_SCALE_ITERATIONS = {64: 8, 256: 4, 1024: 1, 4096: 1, 16384: 1}


def _partitioned_scale_run(name: str, nprocs: int, engine: str, engine_jobs: int):
    from repro.analysis.scaling import partitioned_scale_configs

    machine, network = partitioned_scale_configs()
    workload = _scale_workload(name, nprocs)
    return Simulator(
        workload.nprocs,
        seed=2003,
        machine=machine,
        network=network,
        tracer=False,
        engine=engine,
        engine_jobs=engine_jobs,
    ).run([workload.program_for])


class TestScaleMicrobenchmarks:
    """Engine scaling curves (``-k scale`` selects these).

    The frozen ``BENCH_scale.json`` holds this suite's recorded history
    (``--benchmark-json=FILE`` times it today): bt/lu/sweep3d under the
    scalar event loop versus the vectorised cohort engine at 64 to 4096
    ranks, under :func:`repro.analysis.scaling.lockstep_scale_configs` (an
    ideal network keeps rank clocks in lockstep so timestamp cohorts stay as
    wide as the job — the regime the vectorised dispatch is built for).

    Each benchmark records the processed event count and the events/second
    rate in ``extra_info``, so the scalar-vs-vectorised throughput ratio per
    (workload, nprocs) cell can be read straight out of ``BENCH_scale.json``.
    CI runs only the small-rank rows, untimed (``-k "scale and not 4096 and
    not 16384 and not (curve and 1024)"``); the full curves were produced
    locally.

    The two engines produce bit-identical results by construction — that
    invariant is enforced by ``tests/test_engine_vectorised.py``, not here.
    """

    @pytest.mark.parametrize("engine", ["scalar", "vectorised"])
    @pytest.mark.parametrize("nprocs", [64, 256, 1024, 4096])
    @pytest.mark.parametrize("workload", ["bt", "lu", "sweep3d"])
    def test_bench_scale_curve(self, benchmark, workload, nprocs, engine):
        from repro.workloads.compile import compile_rank_lanes

        # Prime the schedule cache so neither engine's round pays the one-off
        # compile cost (the cache is keyed by configuration and shared by the
        # scalar and vectorised tests of the same cell).
        primed = _scale_workload(workload, nprocs)
        for rank in range(primed.nprocs):
            compile_rank_lanes(primed, rank)

        def simulate():
            return _scale_run(workload, nprocs, engine)

        rounds = 2 if nprocs <= 256 else 1
        result = benchmark.pedantic(simulate, rounds=rounds, iterations=1)
        assert result.events_processed > 0
        assert result.makespan > 0
        _record_row(
            benchmark,
            {
                "workload": workload,
                "nprocs": nprocs,
                "engine": engine,
                "iterations": _SCALE_ITERATIONS[nprocs],
                "events": result.events_processed,
            },
            events_per_sec=result.events_processed,
        )

    @pytest.mark.parametrize("engine", ["vectorised", "parallel"])
    @pytest.mark.parametrize("nprocs", [1024, 4096, 16384])
    def test_bench_scale_parallel(self, benchmark, nprocs, engine):
        """Conservative parallel engine vs the in-process vectorised drain.

        Runs under :func:`repro.analysis.scaling.partitioned_scale_configs`
        (noiseless 2 µs latency: near-lockstep cohorts *and* a positive
        lookahead for the conservative windows) on lockstep bt, with
        ``engine_jobs=4`` worker processes.  Both engines are measured on
        the same configuration so the throughput ratio of a row pair reads
        straight out of ``BENCH_scale.json``.  On a single-CPU host the
        workers time-share one core, so the parallel rows measure the
        window/barrier protocol overhead rather than concurrency — the
        ``note`` field of the committed artefact records the measuring
        host's core count.

        The 16384-rank rows hold ~5 GB resident and run for minutes, so
        they only run when ``REPRO_SCALE_XL`` is set; plain tier-1 runs and
        CI runners skip them.
        """
        from repro.workloads.compile import compile_rank_lanes

        if nprocs >= 16384 and not os.environ.get("REPRO_SCALE_XL"):
            pytest.skip("16384-rank rows need REPRO_SCALE_XL=1 (~5 GB resident)")

        engine_jobs = 4
        primed = _scale_workload("bt", nprocs)
        for rank in range(primed.nprocs):
            compile_rank_lanes(primed, rank)

        def simulate():
            return _partitioned_scale_run("bt", nprocs, engine, engine_jobs)

        result = benchmark.pedantic(simulate, rounds=1, iterations=1)
        assert result.events_processed > 0
        if engine == "parallel":
            info = result.parallel_info
            assert info is not None and "fallback" not in info, info
            assert info["partitions"] == engine_jobs
        _record_row(
            benchmark,
            {
                "workload": "bt",
                "nprocs": nprocs,
                "engine": engine,
                "engine_jobs": engine_jobs if engine == "parallel" else 1,
                "iterations": _SCALE_ITERATIONS[nprocs],
                "events": result.events_processed,
            },
            events_per_sec=result.events_processed,
        )


# ---------------------------------------------------------------------------
# Online prediction service (serve plane)
# ---------------------------------------------------------------------------

#: Serve bench predictor: a deliberately small periodicity pair (~4.4 KB per
#: stream) so the million-stream row is about table mechanics, not ring sizes.
_SERVE_SPEC = "periodicity:window=8,max_period=16,horizon=4"

#: Per-shard LRU cap used by the cold-ingest rows (4 shards -> 16384 resident
#: streams service-wide).  The 100k and 1M rows overflow it, so their resident
#: bytes plateau at the same value — the memory-bound demonstration.
_SERVE_MAX_STREAMS = 4096

_SERVE_SHARDS = 4

#: One stream's burst, shaped like a coalesced server drain (8 observes).
_SERVE_SENDERS = [1, 2, 1, 3, 1, 2, 1, 3]
_SERVE_SIZES = [256, 4096, 256, 65536, 256, 4096, 256, 65536]


def _serve_service(**kwargs):
    from repro.serve.service import ServeService

    return ServeService(_SERVE_SPEC, num_shards=_SERVE_SHARDS, **kwargs)


def _serve_cold_pass(service, streams):
    """Single cold pass: each stream created once, fed one 8-event burst."""
    senders, sizes = _SERVE_SENDERS, _SERVE_SIZES
    for sid in range(streams):
        key = f"s{sid}"
        service.shard_for(key).observe_batch(key, senders, sizes)


class TestServeMicrobenchmarks:
    """Online prediction service ingest (``-k bench_serve`` selects these).

    The frozen ``BENCH_serve.json`` holds this suite's recorded history.  The
    cold rows pour 10k / 100k / 1M **distinct** streams through a service
    whose per-shard LRU cap
    holds 16384 streams resident service-wide: the 10k row fits, the larger
    rows overflow, and their identical ``resident_bytes`` in ``extra_info``
    is the memory plateau the stream table promises.  The warm row measures
    steady-state burst ingest on resident streams; the wire row adds the
    NDJSON decode; the offline row drives ``OnlineMessagePredictor``
    directly — the no-serve-layer reference recorded as the artefact's
    ``baseline`` section.

    CI runs only the fast rows, untimed (``-k "bench_serve and not 1000000"``);
    the million-stream row (~2 minutes) was produced locally.  Serve-vs-offline
    bit-identity is enforced by ``tests/test_serve_equivalence.py``, not here.
    """

    @pytest.mark.parametrize("streams", [10_000, 100_000, 1_000_000])
    def test_bench_serve_ingest_cold(self, benchmark, streams):
        holder = {}

        def setup():
            holder["service"] = _serve_service(max_streams=_SERVE_MAX_STREAMS)
            return (), {}

        def ingest():
            _serve_cold_pass(holder["service"], streams)

        benchmark.pedantic(ingest, setup=setup, rounds=1, iterations=1)
        stats = holder["service"].stats()
        assert stats["observations"] == streams * len(_SERVE_SENDERS)
        assert stats["streams"] <= _SERVE_MAX_STREAMS * _SERVE_SHARDS
        if streams > _SERVE_MAX_STREAMS * _SERVE_SHARDS:
            # Past the cap the LRU must be engaged: residency sits at
            # shards * max_streams and the evictions counter moves.
            assert stats["streams"] == _SERVE_MAX_STREAMS * _SERVE_SHARDS
            assert stats["evictions"] > 0
            assert stats["resident_bytes_per_stream"] > 0
        _record_row(
            benchmark,
            {
                "streams": streams,
                "events": stats["observations"],
                "resident_streams": stats["streams"],
                "resident_bytes": stats["resident_bytes"],
                "resident_bytes_per_stream": stats["resident_bytes_per_stream"],
                "evictions": stats["evictions"],
                "max_streams_per_shard": _SERVE_MAX_STREAMS,
                "num_shards": _SERVE_SHARDS,
            },
            events_per_sec=stats["observations"],
            streams_per_sec=streams,
        )

    def test_bench_serve_ingest_warm(self, benchmark):
        """Steady-state burst ingest: all streams resident, no churn."""
        streams, rounds_per_run = 1024, 10
        service = _serve_service()
        senders = _SERVE_SENDERS * 4  # 32-event bursts
        sizes = _SERVE_SIZES * 4
        keys = [f"s{sid}" for sid in range(streams)]
        shards = [service.shard_for(key) for key in keys]
        for key, shard in zip(keys, shards):
            shard.observe_batch(key, senders, sizes)  # warm every stream

        def ingest():
            for _ in range(rounds_per_run):
                for key, shard in zip(keys, shards):
                    shard.observe_batch(key, senders, sizes)

        benchmark.pedantic(ingest, rounds=3, iterations=1)
        events = rounds_per_run * streams * len(senders)
        stats = service.stats()
        assert stats["evictions"] == 0
        _record_row(
            benchmark,
            {
                "streams": streams,
                "events": events,
                "burst": len(senders),
                "resident_bytes": stats["resident_bytes"],
                "resident_bytes_per_stream": stats["resident_bytes_per_stream"],
            },
            events_per_sec=events,
        )

    def test_bench_serve_ingest_wire(self, benchmark):
        """The full wire path: NDJSON decode + validate + route + observe."""
        streams, repeats = 2_000, 4
        lines = []
        for r in range(repeats):
            for sid in range(streams):
                for sender, nbytes in zip(_SERVE_SENDERS[:2], _SERVE_SIZES[:2]):
                    lines.append(
                        json.dumps(
                            {"receiver": f"s{sid}", "sender": sender, "nbytes": nbytes}
                        )
                    )
        holder = {}

        def setup():
            holder["service"] = _serve_service()
            return (), {}

        def ingest():
            service = holder["service"]
            for number, line in enumerate(lines, start=1):
                service.handle_line(line, number)

        benchmark.pedantic(ingest, setup=setup, rounds=3, iterations=1)
        assert holder["service"].stats()["observations"] == len(lines)
        _record_row(
            benchmark,
            {"streams": streams, "events": len(lines)},
            events_per_sec=len(lines),
        )

    def test_bench_serve_offline_direct(self, benchmark):
        """No-serve-layer reference: the same feed straight into the
        predictor (no routing, no LRU table, no accounting).  The committed
        artefact records this row's rate as the ``baseline`` section, so the
        serve layer's overhead stays readable across regenerations."""
        from repro.predictive.online import OnlineMessagePredictor
        from repro.scenario.spec import PredictorSpec

        streams = 10_000
        spec = PredictorSpec.coerce(_SERVE_SPEC)
        holder = {}

        def setup():
            holder["predictor"] = OnlineMessagePredictor(
                nprocs=streams, horizon=spec.horizon, predictor_factory=spec.factory()
            )
            return (), {}

        def ingest():
            predictor = holder["predictor"]
            senders, sizes = _SERVE_SENDERS, _SERVE_SIZES
            for slot in range(streams):
                predictor.observe_batch(slot, senders, sizes)

        benchmark.pedantic(ingest, setup=setup, rounds=1, iterations=1)
        events = streams * len(_SERVE_SENDERS)
        assert holder["predictor"].observations == events
        _record_row(
            benchmark,
            {"streams": streams, "events": events},
            events_per_sec=events,
            streams_per_sec=streams,
        )

    def test_bench_serve_snapshot_roundtrip(self, benchmark, tmp_path):
        """Snapshot + restore of a full service (4096 resident streams)."""
        from repro.serve.service import ServeService

        service = _serve_service()
        _serve_cold_pass(service, 4_096)
        target = tmp_path / "snap"

        def roundtrip():
            service.snapshot(target)
            return ServeService.restore(target)

        restored = benchmark.pedantic(roundtrip, rounds=3, iterations=1)
        assert restored.stats()["streams"] == 4_096
        snap_bytes = sum(p.stat().st_size for p in target.glob("shard-*.snap"))
        _record_row(
            benchmark,
            {"streams": 4_096, "snapshot_bytes": snap_bytes},
            mb_per_sec=snap_bytes / 1e6,
        )
