"""The serve workloads: ``python -m repro serve`` driven over a pipe or TCP.

The process under test is the server child; this process generates the load
(one writer thread, one connection) and times it.  Every exchange is a payload
of request lines ending in a ``flush``, sent while the responses are read back,
and timed from the first byte sent to the ``flush`` answer.
"""

from __future__ import annotations

import hashlib
import json
import socket
import subprocess
import sys
import threading
import time

from harness import common, gen
from harness.calibrate import SpeedMeter
from harness.metrics import median, percentile
from harness.probes import core_probe, per_item_us
from harness.spans import SpanRecorder

SHARDS = 4

#: Resolved sizes.  Streams are warmed to full history (``window + max_period``
#: = 280 observations): before that ``observe_many`` gets slower with every
#: observation and a pass would measure how long the server has been up.
#:
#: ``warm_passes`` untimed passes then take a TCP server to the state a
#: long-running one lives in.  Every ``observe_batch`` allocates ~0.5 MB of
#: numpy temporaries, and for its first ~1650 calls glibc hands them back to
#: the OS each time (31 or 126 minor page faults a request line, 25-30% of the
#: server's CPU time); then an allocation pins the top of the heap, the
#: temporaries stay and the faults stop for good.  That is in pass 5 of
#: ``serve-warm-bursts`` and pass 9 of ``serve-interleaved`` on every seed
#: tried; the sizes leave a margin, and ``serve.server.minor_faults_per_line``
#: over the timed passes (~0) says whether they still do.
SIZES: dict[str, dict] = {
    "serve-cold-churn": {
        "command": f"serve --stdin --shards {SHARDS} --max-streams 256",
        "max_streams_per_shard": 256,
        "observes_per_visit": 8,
        "visits_per_pass": 4000,
        "return_share": gen.ChurnTraffic.RETURN_SHARE,
        "snapshot_round_trips": 3,
        "restore_check_queries": 256,
    },
    "serve-warm-bursts": {
        "command": f"serve --port 0 --shards {SHARDS}",
        "streams": 128,
        "warm_observations": 288,
        "run_length": 8,
        "predict_after": 16,
        "lines_per_pass": 3000,
        "warm_passes": 7,
    },
    "serve-interleaved": {
        "command": f"serve --port 0 --shards {SHARDS}",
        "streams": 128,
        "warm_observations": 288,
        "run_length": 1,
        "predict_after": 1,
        "lines_per_pass": 400,
        "warm_passes": 12,
        "open_loop_lines_per_s": 400,
        "open_loop_tick_ms": 5,
        "open_loop_share_of_seconds": 0.5,
    },
}


class Server:
    """One ``python -m repro serve`` child and the single connection to it."""

    def __init__(self, args: list[str], quiet: bool = False) -> None:
        self.tcp = "--stdin" not in args
        self._start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *args],
            stdin=None if self.tcp else subprocess.PIPE,
            stdout=subprocess.PIPE,
            # --restore reports what it restored on stderr, every time.
            stderr=subprocess.DEVNULL if quiet else None,
            env=common.child_env(),
        )
        common.pin(self.proc.pid)
        self.sock = None
        try:
            if self.tcp:
                banner = self.proc.stdout.readline().decode()
                if not banner.startswith("serving on "):
                    raise common.BenchFailure(f"repro serve did not start: {banner!r}")
                port = int(banner.rsplit(":", 1)[1])
                self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
                self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._reader = self.sock.makefile("rb")
                self._send = self.sock.sendall
            else:
                self._reader = self.proc.stdout
                self._send = self._write_pipe
            self.stats()
        except BaseException:
            self.kill()
            raise
        #: Spawn until the first ``stats`` answer.
        self.ready_s = time.perf_counter() - self._start

    def _write_pipe(self, payload: bytes) -> None:
        self.proc.stdin.write(payload)
        self.proc.stdin.flush()

    def read_line(self) -> bytes:
        line = self._reader.readline()
        if not line:
            raise common.BenchFailure(f"repro serve closed the stream (exit {self.proc.poll()})")
        return line

    def exchange(self, payload: bytes) -> tuple[float, list[bytes]]:
        """Send ``payload`` (ending in a flush); time it; return the responses before the flush's."""
        writer = threading.Thread(target=self._send, args=(payload,))
        responses = []
        start = time.perf_counter()
        writer.start()
        try:
            while True:
                line = self.read_line()
                if line == gen.FLUSH_RESPONSE:
                    break
                responses.append(line)
            elapsed = time.perf_counter() - start
        finally:
            writer.join()
        return elapsed, responses

    def request(self, line: bytes) -> dict:
        self._send(line)
        return json.loads(self.read_line())

    def stats(self) -> dict:
        return self.request(gen.STATS_LINE)

    def rss_kb(self) -> int:
        return common.proc_status_kb(self.proc.pid, "VmRSS")

    def hwm_kb(self) -> int:
        return common.proc_status_kb(self.proc.pid, "VmHWM")

    def minor_faults(self) -> int:
        return common.proc_minor_faults(self.proc.pid)

    def stop(self) -> None:
        """Orderly shutdown; the server must exit 0."""
        try:
            if self.tcp:
                self.request(b'{"op":"shutdown"}\n')
                self._reader.close()
                self.sock.close()
            else:
                self.proc.stdin.close()
            code = self.proc.wait(timeout=60)
        except BaseException:
            self.kill()
            raise
        self.proc.stdout.close()
        if code != 0:
            raise common.BenchFailure(f"repro serve exited {code}")

    def kill(self) -> None:
        if self.sock is not None:
            self.sock.close()
        self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()


def score(batch: gen.Batch, responses: list[bytes]) -> tuple[int, int]:
    """``(failed lines, +1 sender hits)`` of one exchange.

    A missing or ``error`` response fails its request line; with a response
    missing, the pairing of the rest is unknown and the whole exchange fails.
    """
    if len(responses) != len(batch.expect):
        return batch.lines, 0
    failed = hits = 0
    for raw, expected in zip(responses, batch.expect):
        answer = json.loads(raw)
        if "error" in answer:
            failed += 1
        elif answer["predictions"] and answer["predictions"][0]["sender"] == expected:
            hits += 1
    return failed, hits


def _sha(responses: list[bytes]) -> str:
    return hashlib.sha256(b"".join(responses)).hexdigest()


class Tally:
    """Passes of one run: op counts, failures, predictions, digests, rates."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.predicts = self.hits = self.lines_per_pass = 0
        self.rates: list[float] = []
        self.raw_rates: list[float] = []
        self.speeds: list[float] = []
        self.digests: list[str] = []

    def add(
        self, batch: gen.Batch, elapsed: float, responses: list[bytes], speed: float | None = None
    ) -> None:
        """Score one exchange; with the ``speed`` measured before it, it is a timed pass.

        Accuracy is taken over the exchanges every run of a seed makes — all up
        to and including the first timed pass — so that it repeats exactly
        however many passes fit into ``--seconds``.
        """
        failed, hits = score(batch, responses)
        self.digests.append(_sha(responses))
        self.failed += failed
        self.attempted += batch.lines
        if not self.rates:
            self.predicts += len(batch.expect)
            self.hits += hits
        if speed is not None:
            self.lines_per_pass = batch.lines
            self.rates.append(batch.lines / elapsed / speed)
            self.raw_rates.append(batch.lines / elapsed)
            self.speeds.append(speed)


def _server_args(name: str) -> list[str]:
    return SIZES[name]["command"].split()[1:]


def _set_up(name: str, setups: int, warmup: gen.Batch | None) -> tuple[Server, list[float]]:
    """Spawn (and warm) ``setups`` servers in turn; keep the last one."""
    samples = []
    for index in range(setups):
        start = time.perf_counter()
        server = Server(_server_args(name))
        try:
            if warmup:
                server.exchange(warmup.payload)
            samples.append(time.perf_counter() - start)
            if index < setups - 1:
                server.stop()
        except BaseException:
            server.kill()
            raise
    return server, samples


def _pass(server: Server, make_batch, tally: Tally, meter: SpeedMeter | None = None):
    """One pass, scored; timed when ``meter`` reads the host speed around it."""
    batch = make_batch()
    elapsed, answers = server.exchange(batch.payload)
    tally.add(batch, elapsed, answers, meter.around() if meter else None)
    return batch, answers


def _timed_passes(server: Server, make_batch, tally: Tally, kept: list, seconds: float) -> float:
    """Timed passes until ``seconds`` are up; the first one is kept for replay.

    Returns the server's minor page faults per request line over these passes.
    """
    faults, lines = server.minor_faults(), tally.attempted
    meter = SpeedMeter(common.child_cpu())
    deadline = time.perf_counter() + seconds
    while not tally.rates or time.perf_counter() < deadline:
        exchange = _pass(server, make_batch, tally, meter)
        if len(tally.rates) == 1:
            kept.append(exchange)
    return (server.minor_faults() - faults) / (tally.attempted - lines)


# ----------------------------------------------------------------------
# serve-cold-churn
# ----------------------------------------------------------------------
def _restore_check_payload(traffic: gen.ChurnTraffic, count: int) -> bytes:
    """``predict`` lines for the newest streams (resident) and the oldest (evicted)."""
    streams = traffic.streams
    keys = [s.key for s in streams[-count // 2 :]] + [s.key for s in streams[: count // 2]]
    return b"".join(gen.predict_line(key).encode() for key in keys) + gen.FLUSH_LINE


def _snapshot_round_trip(server: Server, directory, check: bytes, expected: list[bytes]):
    """Snapshot, restart from it, first answer; then the restored answers must match."""
    start = time.perf_counter()
    answer = server.request(
        json.dumps({"op": "snapshot", "dir": str(directory)}).encode() + b"\n"
    )
    snapshot_s = time.perf_counter() - start
    if "error" in answer:
        raise common.BenchFailure(f"snapshot failed: {answer}")
    restored = Server(["--stdin", "--restore", str(directory)], quiet=True)
    try:
        restore_s = restored.ready_s
        same = restored.exchange(check)[1] == expected
        restored.stop()
    except BaseException:
        restored.kill()
        raise
    return snapshot_s + restore_s, same


def run_cold_churn(seed: int, seconds: float, trace: bool, setups: int) -> dict:
    with common.scratch_dir("churn") as tmp:
        return _run_cold_churn(seed, seconds, trace, setups, tmp)


def _run_cold_churn(seed: int, seconds: float, trace: bool, setups: int, tmp) -> dict:
    name = "serve-cold-churn"
    size = SIZES[name]
    traffic = gen.ChurnTraffic(seed, size["observes_per_visit"])
    server, setup_samples = _set_up(name, setups, None)
    try:
        rss_empty = server.rss_kb()
        tally = Tally()
        kept: list = []
        make_batch = lambda: traffic.batch(size["visits_per_pass"])  # noqa: E731
        kept.append(_pass(server, make_batch, tally))  # untimed warm pass
        faults_per_line = _timed_passes(server, make_batch, tally, kept, seconds)
        stats = server.stats()
        rss_full = server.rss_kb()
        values = {}
        spans = None
        if trace:
            values, spans = traced_run(name, seed, server, traffic, kept, tally, tmp)
        # Last, because a predict refreshes its stream's place in the LRU order:
        # every exchange after these queries would answer differently.
        check = _restore_check_payload(traffic, size["restore_check_queries"])
        expected = server.exchange(check)[1]
        trips = []
        restored_same = True
        for index in range(size["snapshot_round_trips"]):
            trip_s, same = _snapshot_round_trip(server, tmp / f"snap-{index}", check, expected)
            trips.append(trip_s)
            restored_same = restored_same and same
        peak_kb = server.hwm_kb()
        server.stop()
    except BaseException:
        server.kill()
        raise
    if not restored_same:
        tally.failed = tally.attempted
    rss_delta_kb = rss_full - rss_empty
    values.update(
        {
            "accuracy_plus1": tally.hits / tally.predicts,
            "rss_kb_per_stream": rss_delta_kb / stats["streams"],
            "snapshot_roundtrip_s": median(trips),
            "serve.server.minor_faults_per_line": faults_per_line,
            "serve.table.evictions": stats["evictions"],
            "serve.table.streams_created": sum(s["streams_created"] for s in stats["shards"]),
            "serve.table.resident_bytes_est": stats["resident_bytes"],
            "serve.table.est_vs_rss": stats["resident_bytes"] / (rss_delta_kb * 1024.0),
        }
    )
    return _report(name, tally, setup_samples, peak_kb, values, spans, {"snapshot_roundtrip_s": trips})


# ----------------------------------------------------------------------
# serve-warm-bursts and serve-interleaved
# ----------------------------------------------------------------------
def run_resident(name: str, seed: int, seconds: float, trace: bool, setups: int) -> dict:
    size = SIZES[name]
    traffic = gen.ResidentTraffic(seed, size["streams"], size["run_length"], size["predict_after"])
    warmup = traffic.warmup(size["warm_observations"])
    server, setup_samples = _set_up(name, setups, warmup)
    try:
        tally = Tally()
        kept = [(warmup, [])]
        make_batch = lambda: traffic.batch(size["lines_per_pass"])  # noqa: E731
        values = {}
        samples = {}
        closed_seconds = seconds
        faults = server.minor_faults()
        for index in range(size["warm_passes"]):  # untimed
            batch = make_batch()
            elapsed, answers = server.exchange(batch.payload)
            tally.add(batch, elapsed, answers)
            kept.append((batch, answers))
            if index == 0:  # what a just-started server does, before its heap settles
                values["serve.server.fresh_ops_per_s"] = batch.lines / elapsed
                values["serve.server.fresh_faults_per_line"] = (
                    server.minor_faults() - faults
                ) / batch.lines
        if "open_loop_lines_per_s" in size:
            open_seconds = seconds * size["open_loop_share_of_seconds"]
            closed_seconds = seconds - open_seconds
            open_values, latencies = open_loop(server, traffic, size, open_seconds, tally, kept)
            values.update(open_values)
            samples["query_p50_ms"] = latencies
        values["serve.server.minor_faults_per_line"] = _timed_passes(
            server, make_batch, tally, kept, closed_seconds
        )
        stats = server.stats()
        spans = None
        if trace:
            traced_values, spans = traced_run(name, seed, server, traffic, kept, tally, None)
            values.update(traced_values)
        peak_kb = server.hwm_kb()
        server.stop()
    except BaseException:
        server.kill()
        raise
    values.update(
        {
            "accuracy_plus1": tally.hits / tally.predicts,
            "serve.table.evictions": stats["evictions"],
            "serve.table.streams_created": sum(s["streams_created"] for s in stats["shards"]),
            "serve.table.resident_bytes_est": stats["resident_bytes"],
        }
    )
    return _report(name, tally, setup_samples, peak_kb, values, spans, samples)


def open_loop(server: Server, traffic, size: dict, seconds: float, tally: Tally, kept: list):
    """Phase B: ticks sent on schedule whatever comes back; answers timed from due time."""
    tick_s = size["open_loop_tick_ms"] / 1000.0
    per_tick = max(1, round(size["open_loop_lines_per_s"] * tick_s))
    ticks = max(1, int(seconds / tick_s))
    chunks, predicts_in, batch = traffic.ticks(ticks, per_tick)
    sent_at = [0.0] * ticks
    first_due = time.perf_counter() + 0.05

    def send_on_schedule() -> None:
        clock, sleep, send = time.perf_counter, time.sleep, server.sock.sendall
        for index, chunk in enumerate(chunks):
            wait = first_due + index * tick_s - clock()
            if wait > 0:
                sleep(wait)
            send(chunk)
            sent_at[index] = clock()
        send(gen.FLUSH_LINE)

    writer = threading.Thread(target=send_on_schedule)
    answers, read_at = [], []
    writer.start()
    try:
        while True:
            line = server.read_line()
            if line == gen.FLUSH_RESPONSE:
                break
            answers.append(line)
            read_at.append(time.perf_counter())
    finally:
        writer.join()
    tally.add(batch, 0.0, answers)
    kept.append((batch, answers))
    if len(answers) != len(batch.expect):
        raise common.BenchFailure("open loop: responses missing")

    due_of_answer = [
        first_due + index * tick_s for index, count in enumerate(predicts_in) for _ in range(count)
    ]
    latencies_ms = [(read - due) * 1e3 for read, due in zip(read_at, due_of_answer)]
    late_ms = [(sent - (first_due + i * tick_s)) * 1e3 for i, sent in enumerate(sent_at)]
    late_ticks = sum(1 for late in late_ms if late > size["open_loop_tick_ms"])
    try:
        p99_ms = percentile(latencies_ms, 99)
    except ValueError:
        p99_ms = 0.0  # a short --seconds leaves fewer than ten answers beyond the p99
    values = {
        "query_p50_ms": median(latencies_ms),
        "serve.server.query_p99_ms": p99_ms,
        "serve.server.gen_late_ms": max(late_ms),
        "serve.server.backlog_end": sum(1 for read in read_at if read > sent_at[-1]),
        "serve.server.generator_limited": int(late_ticks > 0.01 * ticks),
    }
    return values, latencies_ms


# ----------------------------------------------------------------------
# The traced run: one more pass over the live server, then the same input
# replayed through each layer's public functions in this process.
# ----------------------------------------------------------------------
def traced_run(name: str, seed: int, server: Server, traffic, kept, tally: Tally, tmp):
    from repro.predictive.state import freeze_state, state_nbytes, thaw_state
    from repro.serve import ServeService, Shard, encode_response, parse_event_line

    size = SIZES[name]
    churn = name == "serve-cold-churn"
    rec = SpanRecorder(run_id=f"{name}-{seed}")
    values: dict[str, float] = {}
    with rec.span("harness.traced_run"):
        with rec.span("harness.generate"):
            batch = traffic.batch(size["visits_per_pass" if churn else "lines_per_pass"])
        meter = SpeedMeter(common.child_cpu())
        with rec.span("serve.server.exchange"):
            elapsed, answers = server.exchange(batch.payload)
        traced_rate = batch.lines / elapsed / meter.around()
        with rec.span("harness.score"):
            tally.add(batch, elapsed, answers)
        values["trace_overhead_share"] = median(tally.rates) / traced_rate - 1.0
        values["serve.server.coalesce_run_mean"] = batch.run_mean

        # Replay: the kept exchanges, in order, through ServeService; the last
        # one (the first timed pass) is the one that is timed.
        service = ServeService(
            num_shards=SHARDS, max_streams=size.get("max_streams_per_shard")
        )
        *warm, (last_batch, last_answers) = kept
        with rec.span("harness.decode"):
            warm_lines = [
                line
                for warm_batch, _ in warm
                for line in warm_batch.payload.decode().splitlines()[:-1]
            ]
            lines = last_batch.payload.decode().splitlines()[:-1]
        with rec.span("serve.service.warm_replay"):
            replayed = [service.handle_line(line) for line in warm_lines]
        with rec.span("serve.service.handle_line"):
            start = time.perf_counter()
            responses = [service.handle_line(line) for line in lines]
            values["serve.service.handle_line_us"] = (
                (time.perf_counter() - start) / len(lines) * 1e6
            )
        responses = [r for r in responses if r is not None]
        with rec.span("serve.protocol.encode"):
            encoded = []
            values["serve.protocol.encode_us"] = per_item_us(
                [(r,) for r in responses], lambda r: encoded.append(encode_response(r))
            )
        with rec.span("harness.verify"):
            warm_encoded = [encode_response(r) for r in replayed if r is not None]
            warm_answers = [a for _, batch_answers in warm for a in batch_answers]
            if [e.encode() + b"\n" for e in warm_encoded + encoded] != warm_answers + last_answers:
                raise common.BenchFailure(
                    f"{name}: the server's answers differ from an in-process ServeService replay"
                )
        with rec.span("serve.protocol.parse"):
            values["serve.protocol.parse_us"] = per_item_us(
                [(line,) for line in lines], parse_event_line
            )
        resident = [(shard, key) for shard in service.shards for key in shard.table.keys()][:512]
        with rec.span("serve.service.route"):
            values["serve.service.route_us"] = per_item_us(
                [(key,) for _shard, key in resident * 8], service.shard_index_for
            )
        run_length = size.get("run_length", size.get("observes_per_visit"))
        senders, sizes = list(range(1, run_length + 1)), [512] * run_length
        with rec.span("serve.table.get_hit"):
            values["serve.table.get_hit_us"] = per_item_us(
                resident * 4, lambda shard, key: shard.table.get(key)
            )
        with rec.span("serve.shard.observe"):
            values["serve.shard.observe_us"] = per_item_us(
                resident[:256], lambda shard, key: shard.observe(key, 3, 512)
            )
        with rec.span("serve.shard.observe_batch"):
            values["serve.shard.observe_batch_us_per_obs"] = (
                per_item_us(
                    resident[:256], lambda shard, key: shard.observe_batch(key, senders, sizes)
                )
                / run_length
            )
        with rec.span("serve.shard.predict"):
            values["serve.shard.predict_us"] = per_item_us(
                resident * 2, lambda shard, key: shard.predict(key)
            )

        if churn:
            # Misses on a table of the workload's own bound, evictions included.
            table = Shard(max_streams=size["max_streams_per_shard"]).table
            probe_keys = [(f"probe{i}",) for i in range(2 * size["max_streams_per_shard"])]
            with rec.span("serve.table.create"):
                values["serve.table.create_us"] = per_item_us(
                    probe_keys, lambda key: table.get(key, create=True)
                )
            _key, entry = max(
                service.shards[0].table.items(), key=lambda item: item[1].observations
            )
            state = [(entry.predictor,)] * 64
            with rec.span("predictive.state_nbytes"):
                values["predictive.state_nbytes_us"] = per_item_us(state, state_nbytes)
            with rec.span("predictive.freeze"):
                values["predictive.freeze_us"] = per_item_us(state, freeze_state)
            frozen = freeze_state(entry.predictor)
            values["predictive.frozen_bytes"] = len(frozen)
            with rec.span("predictive.thaw"):
                values["predictive.thaw_us"] = per_item_us([(frozen,)] * 64, thaw_state)
            directory = tmp / "probe-snapshot"
            with rec.span("serve.snapshot.write") as write_span:
                service.snapshot(directory)
            with rec.span("serve.snapshot.load") as load_span:
                ServeService.restore(directory)
            snapshot_bytes = sum(f.stat().st_size for f in directory.iterdir())
            write_s = write_span["end"] - write_span["start"]
            values.update(
                {
                    "serve.snapshot.write_s": write_s,
                    "serve.snapshot.load_s": load_span["end"] - load_span["start"],
                    "serve.snapshot.bytes": snapshot_bytes,
                    "serve.snapshot.mb_per_s": snapshot_bytes / 1e6 / write_s,
                }
            )
        else:
            values.update(core_probe(rec, seed))
    values["serve.server.overhead_us"] = (
        1e6 / median(tally.raw_rates) - values["serve.service.handle_line_us"]
    )
    return values, rec.spans


def _report(name, tally: Tally, setup_samples, peak_kb, values, spans, samples) -> dict:
    return {
        "ops_per_pass": tally.lines_per_pass,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "digests": {"responses": tally.digests},
        "samples": {
            "setup_s": setup_samples,
            "ops_per_s": tally.rates,
            "harness.ops_per_s_raw": tally.raw_rates,
            "harness.host_speed": tally.speeds,
            "peak_rss_mb": [peak_kb / 1024.0],
            **samples,
        },
        "values": values,
        "spans": spans,
        "sizes": SIZES[name],
    }


def run(name: str, seed: int, seconds: float, trace: bool, setups: int) -> dict:
    if name == "serve-cold-churn":
        return run_cold_churn(seed, seconds, trace, setups)
    return run_resident(name, seed, seconds, trace, setups)
