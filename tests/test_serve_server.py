"""End-to-end tests for the serve front end (repro.serve.server).

A real TCP server runs its blocking loop on an ephemeral port inside a
background thread; the blocking :class:`repro.serve.client.ServeClient`
drives it from the test thread.  The contract: coalesced, chunked ingestion
is invisible in the responses (byte-identical to ``ServeService.handle_line``
line by line, wherever the reads cut the bytes), responses come back in
request order, malformed and oversized lines answer with a line-numbered
error without killing the connection, connections do not wait for each
other, and snapshot → restart → identical responses works over the wire.
"""

import io
import json
import random
import socket
import struct
import threading
import time
import tracemalloc

import pytest

from repro.cli import main as cli_main
from repro.predictive.state import freeze_state
from repro.serve.client import ServeClient, ServeResponseError
from repro.predictive.registry import predictor_names
from repro.serve import protocol
from repro.serve.protocol import (
    MAX_HORIZON,
    ServeProtocolError,
    encode_event,
    encode_response,
    parse_event_line,
)
from repro.serve import server as server_module
from repro.serve.server import MAX_LINE_BYTES, LineIngest, ServeServer, run_stdin
from repro.serve.service import ServeService

SPEC = "periodicity:window=6,max_period=12,horizon=4"

#: Line 2 carries 2**70: a Python int to ``json``, but it does not fit the
#: int64 streams, so it must be rejected at the wire and never reach a shard.
BEYOND_INT64_FEED = (
    '{"receiver": "alpha", "sender": 1, "nbytes": 100}\n'
    '{"receiver": "alpha", "sender": 2, "nbytes": 1180591620717411303424}\n'
    '{"op": "predict", "receiver": "alpha"}\n'
)

#: Line 3 asks for 2**62 predictions of a stream with a detected period.  An
#: unbounded horizon is an allocation of that size (at 2**62 one that fails at
#: once, which is what makes this safe to run on a tree without the bound);
#: past MAX_HORIZON it is an ordinary protocol error and line 4 is served.
HUGE_HORIZON_FEED = (
    '{"receiver": "alpha", "sender": 1, "nbytes": 100}\n' * 30
    + '{"op": "predict", "receiver": "alpha", "horizon": 1024}\n'
    + '{"op": "predict", "receiver": "alpha", "horizon": 4611686018427387904}\n'
    + '{"op": "predict", "receiver": "alpha"}\n'
)


def assert_huge_horizon_answers(responses, parse_errors):
    largest, rejected, answered = responses
    assert largest["predictions"] == [{"sender": 1, "nbytes": 100}] * 1024
    assert rejected == {
        "error": "line 32: horizon must be <= 1024, got 4611686018427387904",
        "line": 32,
    }
    assert answered["op"] == "predict" and answered["known"] is True
    assert answered["predictions"] == [{"sender": 1, "nbytes": 100}] * 4
    assert parse_errors == 1


#: A NUL in a path raises ``ValueError`` (not ``OSError``) out of
#: ``Path.mkdir`` and a lone surrogate ``UnicodeEncodeError``: neither reaches
#: the file system, both are protocol errors, and line 4 is served.
HOSTILE_SNAPSHOT_FEED = (
    '{"receiver": "alpha", "sender": 1, "nbytes": 100}\n'
    '{"op": "snapshot", "dir": "a\\u0000b"}\n'
    '{"op": "snapshot", "dir": "a\\ud800b"}\n'
    '{"op": "predict", "receiver": "alpha"}\n'
)


def assert_hostile_snapshot_answers(responses, parse_errors):
    nul, surrogate, answered = responses
    assert nul == {"error": "line 2: dir must not contain NUL", "line": 2}
    assert surrogate["line"] == 3
    assert surrogate["error"].startswith("line 3: dir must be encodable as UTF-8")
    assert answered["op"] == "predict" and answered["known"] is True
    assert parse_errors == 2


#: ``json.loads`` recurses once per nesting level, so 5 KB of brackets (the
#: line bound is 64 KB) ends in ``RecursionError``, not ``JSONDecodeError``:
#: both shapes are protocol errors and line 4 is served.
DEEP_NESTING_FEED = (
    '{"receiver": "alpha", "sender": 1, "nbytes": 100}\n'
    + "[" * 5000 + "\n"
    + '{"a":' * 3000 + "\n"
    + '{"op": "predict", "receiver": "alpha"}\n'
)


#: 5 KB of digits, well inside the line bound: the interpreter refuses to turn
#: more than 4300 into an int with a plain ``ValueError`` — a protocol error
#: like any other, and lines 3 and 4 are served.
LONG_INTEGER_FEED = (
    '{"receiver": "alpha", "sender": 1, "nbytes": 100}\n'
    + '{"receiver":1,"nbytes":1,"sender":' + "9" * 5000 + "}\n"
    + '{"receiver": "alpha", "sender": 2, "nbytes": 200}\n'
    + '{"op": "predict", "receiver": "alpha"}\n'
)


def assert_long_integer_answers(responses, service):
    rejected, answered = responses
    assert rejected == {"error": "line 2: invalid JSON: integer too long", "line": 2}
    assert answered["op"] == "predict" and answered["known"] is True
    assert service.parse_errors == 1
    assert service.stats()["observations"] == 2 and service.stats()["streams"] == 1


def assert_deep_nesting_answers(responses, parse_errors):
    array, obj, answered = responses
    assert array == {"error": "line 2: invalid JSON: nested too deeply", "line": 2}
    assert obj == {"error": "line 3: invalid JSON: nested too deeply", "line": 3}
    assert answered["op"] == "predict" and answered["known"] is True
    assert parse_errors == 2


PATTERNS = {
    "alpha": [(1, 100), (2, 200)],
    "beta": [(3, 300), (4, 400), (5, 500)],
}


def make_service(num_shards=2, **kwargs):
    return ServeService(SPEC, num_shards=num_shards, **kwargs)


class ServerThread:
    """A ServeServer's blocking loop in a thread of its own."""

    def __init__(self, service):
        self._server = ServeServer(service, port=0)
        self.port = None
        self._failure = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        try:
            self._server.serve_until_shutdown()
        except BaseException as error:  # surface crashes to the test thread
            self._failure = error

    def __enter__(self):
        self._server.start()
        self.port = self._server.port
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        if self._thread.is_alive():
            try:
                with ServeClient.connect(port=self.port, timeout=5) as client:
                    client.shutdown()
            except OSError:
                pass
        self._thread.join(timeout=10)
        assert not self._thread.is_alive(), "server thread did not stop"
        if self._failure is not None and exc_info == (None, None, None):
            raise self._failure


def ingest_patterns(client, repetitions=12):
    for _ in range(repetitions):
        for key, pattern in PATTERNS.items():
            for sender, nbytes in pattern:
                client.observe(key, sender, nbytes)
    client.flush()


def offline_responses():
    """What a direct (loop-free) service drive answers for the same feed."""
    service = make_service()
    for _ in range(12):
        for key, pattern in PATTERNS.items():
            for sender, nbytes in pattern:
                service.observe(key, sender, nbytes)
    from repro.serve.protocol import ServeEvent

    return {
        key: service.handle(ServeEvent(op="predict", receiver=key))
        for key in PATTERNS
    }


class TestTCPServer:
    def test_ingest_and_query_matches_direct_drive(self):
        with ServerThread(make_service()) as server:
            with ServeClient.connect(port=server.port) as client:
                ingest_patterns(client)
                served = {key: client.predict(key) for key in PATTERNS}
        assert served == offline_responses()

    def test_flush_is_a_barrier(self):
        with ServerThread(make_service()) as server:
            with ServeClient.connect(port=server.port) as client:
                for _ in range(50):
                    client.observe("alpha", 1, 100)
                assert client.flush() == {"op": "flush", "ok": True}
                assert client.stats()["observations"] == 50

    def test_expects_and_unknown_receivers(self):
        with ServerThread(make_service()) as server:
            with ServeClient.connect(port=server.port) as client:
                ingest_patterns(client)
                known = client.expects("alpha", 1)
                assert known["known"] is True
                unknown = client.predict("never-seen")
                assert unknown == {
                    "op": "predict",
                    "receiver": "never-seen",
                    "known": False,
                    "predictions": [],
                }

    def test_malformed_line_answers_error_and_connection_survives(self):
        with ServerThread(make_service()) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
                reader = sock.makefile("r", encoding="utf-8", newline="\n")
                sock.sendall(
                    b'{"receiver": "alpha", "sender": 1, "nbytes": 100}\n'
                    b"this is not json\n"
                    b'{"op": "bogus"}\n'
                    b'{"op": "stats"}\n'
                )
                responses = [json.loads(reader.readline()) for _ in range(3)]
        # Line numbers are per-connection and 1-based: the garbage was line 2,
        # the unknown op line 3; both answered, neither killed the socket.
        assert responses[0]["line"] == 2
        assert responses[0]["error"].startswith("line 2: invalid JSON")
        assert responses[1]["line"] == 3
        assert "unknown op 'bogus'" in responses[1]["error"]
        assert responses[2]["op"] == "stats"
        assert responses[2]["parse_errors"] == 2
        assert responses[2]["observations"] == 1

    def test_count_beyond_int64_answers_error_and_shard_survives(self):
        # One shard, so the predict is answered by the worker the bad line
        # would have reached.
        with ServerThread(make_service(num_shards=1)) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
                reader = sock.makefile("r", encoding="utf-8", newline="\n")
                sock.sendall(BEYOND_INT64_FEED.encode())
                rejected = json.loads(reader.readline())
                answered = json.loads(reader.readline())
        assert rejected["line"] == 2
        assert rejected["error"].startswith("line 2: nbytes must be <= 2**63 - 1")
        assert answered["op"] == "predict"
        assert answered["known"] is True

    def test_horizon_beyond_the_bound_answers_error_and_connection_survives(self):
        service = make_service(num_shards=1)
        with ServerThread(service) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
                reader = sock.makefile("r", encoding="utf-8", newline="\n")
                sock.sendall(HUGE_HORIZON_FEED.encode())
                responses = [json.loads(reader.readline()) for _ in range(3)]
        assert_huge_horizon_answers(responses, service.parse_errors)

    def test_snapshot_dir_with_nul_or_surrogate_answers_error_and_connection_survives(self):
        service = make_service(num_shards=1)
        with ServerThread(service) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
                reader = sock.makefile("r", encoding="utf-8", newline="\n")
                sock.sendall(HOSTILE_SNAPSHOT_FEED.encode())
                responses = [json.loads(reader.readline()) for _ in range(3)]
        assert_hostile_snapshot_answers(responses, service.parse_errors)

    def test_deeply_nested_line_answers_error_and_connection_survives(self):
        service = make_service(num_shards=1)
        with ServerThread(service) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
                reader = sock.makefile("r", encoding="utf-8", newline="\n")
                sock.sendall(DEEP_NESTING_FEED.encode())
                responses = [json.loads(reader.readline()) for _ in range(3)]
        assert_deep_nesting_answers(responses, service.parse_errors)

    def test_long_integer_line_answers_error_and_connection_survives(self):
        service = make_service(num_shards=1)
        with ServerThread(service) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
                reader = sock.makefile("r", encoding="utf-8", newline="\n")
                sock.sendall(LONG_INTEGER_FEED.encode())
                responses = [json.loads(reader.readline()) for _ in range(2)]
        assert_long_integer_answers(responses, service)

    def test_client_raises_on_error_response(self):
        with ServerThread(make_service()) as server:
            with ServeClient.connect(port=server.port) as client:
                client.send_raw('{"op": "snapshot", "dir": "/proc/version/nope"}')
                with pytest.raises(ServeResponseError):
                    client.flush()  # reads the snapshot error response

    def test_responses_come_back_in_request_order(self):
        with ServerThread(make_service()) as server:
            with ServeClient.connect(port=server.port) as client:
                ingest_patterns(client)
                # Burst of pipelined queries over both shards, read in order.
                for _ in range(20):
                    client.send_raw('{"op": "predict", "receiver": "alpha"}')
                    client.send_raw('{"op": "predict", "receiver": "beta"}')
                client.flush_io()
                for _ in range(20):
                    assert json.loads(client._reader.readline())["receiver"] == "alpha"
                    assert json.loads(client._reader.readline())["receiver"] == "beta"

    def test_snapshot_restart_identical_responses(self, tmp_path):
        snap_dir = tmp_path / "snap"
        with ServerThread(make_service()) as server:
            with ServeClient.connect(port=server.port) as client:
                ingest_patterns(client)
                before = {key: client.predict(key) for key in PATTERNS}
                written = client.snapshot(snap_dir)
                assert written == {
                    "op": "snapshot",
                    "dir": str(snap_dir),
                    "shards": 2,
                    "streams": 2,
                }
        with ServerThread(ServeService.restore(snap_dir)) as server:
            with ServeClient.connect(port=server.port) as client:
                after = {key: client.predict(key) for key in PATTERNS}
        assert after == before

    def test_shutdown_op_stops_the_server(self):
        with ServerThread(make_service()) as server:
            with ServeClient.connect(port=server.port) as client:
                assert client.shutdown() == {"op": "shutdown", "ok": True}
            server._thread.join(timeout=10)
            assert not server._thread.is_alive()

    def test_answers_are_not_held_back_for_coalescing(self):
        # Without TCP_NODELAY a closed-loop client's next answer can wait for
        # a delayed ACK (~40 ms) behind the previous one.
        with ServerThread(make_service()) as server:
            with ServeClient.connect(port=server.port) as client:
                client.flush()  # accepted and registered by now
                peers = [
                    key.fileobj
                    for key in server._server._selector.get_map().values()
                    if key.data is not None
                ]
                assert [p.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) for p in peers] == [1]

    def test_two_connections_share_the_service(self):
        with ServerThread(make_service()) as server:
            with ServeClient.connect(port=server.port) as writer_client:
                ingest_patterns(writer_client)
            with ServeClient.connect(port=server.port) as reader_client:
                assert reader_client.predict("alpha")["known"] is True


def mixed_feed() -> bytes:
    """Every kind of line the core distinguishes, ending without a newline."""
    lines = []

    def observes(key, count, phase=0):
        for i in range(count):
            sender = 1 + (phase + i) % 3
            lines.append(
                json.dumps(
                    {"receiver": key, "sender": sender, "nbytes": 100 * sender},
                    ensure_ascii=False,
                )
            )

    observes("alpha", 20)  # runs of 20, 3 and 1 on three keys, one non-ASCII
    observes("bêta-ü", 3)
    observes("gamma", 1)
    lines.append('{"op": "predict", "receiver": "alpha"}')
    lines.append("")  # blank keep-alive line: numbered, not answered
    observes("bêta-ü", 20, phase=3)
    lines.append("this is not json")
    lines.append('{"op": "expects", "receiver": "bêta-ü", "sender": 3}')
    observes("gamma", 3, phase=1)
    lines.append('{"op": "flush"}')
    lines.append('{"op": "bogus"}')
    observes("alpha", 1, phase=20)
    lines.append('{"op": "predict", "receiver": "bêta-ü", "horizon": 2}')
    return "\n".join(lines).encode("utf-8")


def line_by_line(feed: bytes):
    """The definition: ``ServeService.handle_line`` on each line in turn."""
    service = make_service()
    out = []
    for number, raw in enumerate(feed.split(b"\n"), start=1):
        line = raw.decode("utf-8")
        if not line.strip():
            continue
        try:
            response = service.handle_line(line, number)
        except ServeProtocolError as error:
            response = {"error": str(error), "line": number}
        if response is not None:
            out.append(encode_response(response) + "\n")
    return "".join(out).encode("utf-8"), service


def chunked(feed: bytes, cuts):
    """Feed ``feed`` to a fresh core cut at the given offsets."""
    service = make_service()
    ingest = LineIngest(service)
    edges = [0, *cuts, len(feed)]
    # An empty read is the end of input, so only the last feed may be empty.
    out = [ingest.feed(feed[start:stop]) for start, stop in zip(edges, edges[1:]) if start < stop]
    out.append(ingest.feed(b""))
    return b"".join(out), service


class TestChunkingIsInvisible:
    def test_feed_exercises_what_it_claims(self):
        expected, service = line_by_line(mixed_feed())
        responses = [json.loads(line) for line in expected.splitlines()]
        assert [r.get("op", "error") for r in responses] == [
            "predict", "error", "expects", "flush", "error", "predict",
        ]
        assert [r["line"] for r in responses if "error" in r] == [47, 53]
        assert responses[0]["known"] and responses[-1]["predictions"]
        assert service.parse_errors == 2
        assert not mixed_feed().endswith(b"\n")

    def test_cut_at_every_byte_offset(self):
        feed = mixed_feed()
        expected, reference = line_by_line(feed)
        for cut in range(len(feed) + 1):
            served, service = chunked(feed, [cut])
            assert served == expected, f"cut at byte {cut}"
            assert service.parse_errors == reference.parse_errors
            assert service.stats() == reference.stats(), f"cut at byte {cut}"

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_random_chunk_sizes(self, seed):
        feed = mixed_feed()
        expected, reference = line_by_line(feed)
        rng = random.Random(seed)
        cuts, position = [], 0
        while True:
            position += rng.choice([1, 2, 3, 7, 40, 200])
            if position >= len(feed):
                break
            cuts.append(position)
        served, service = chunked(feed, cuts)
        assert served == expected
        assert service.stats() == reference.stats()

    def test_one_byte_per_send_over_tcp(self):
        feed = mixed_feed()
        expected, reference = line_by_line(feed)
        service = make_service()
        with ServerThread(service) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                for offset in range(len(feed)):
                    sock.sendall(feed[offset : offset + 1])
                sock.shutdown(socket.SHUT_WR)  # EOF serves the unterminated line
                served = b"".join(iter(lambda: sock.recv(65536), b""))
            assert served == expected
            assert service.stats() == reference.stats()

    def test_nothing_is_served_after_shutdown(self):
        feed = b'{"op":"shutdown"}\n{"op":"flush"}\n'
        for cut in range(len(feed) + 1):
            service = make_service()
            ingest = LineIngest(service)
            served = ingest.feed(feed[:cut]) + ingest.feed(feed[cut:]) + ingest.feed(b"")
            assert served == b'{"ok":true,"op":"shutdown"}\n'
            assert ingest.shutdown


def oversized_observe(content_bytes: int) -> bytes:
    """A well-formed observe line of exactly ``content_bytes`` bytes."""
    frame = '{"receiver":"%s","sender":1,"nbytes":2}'
    return (frame % ("x" * (content_bytes - len(frame % "")))).encode()


class TestOversizedLines:
    FEED = (
        b'{"receiver": "alpha", "sender": 1, "nbytes": 100}\n'
        + oversized_observe(70_000)
        + b'\n{"op": "stats"}\n'
    )

    def test_the_bound_is_the_old_readline_limit(self):
        assert MAX_LINE_BYTES == 65536
        assert len(oversized_observe(MAX_LINE_BYTES)) == MAX_LINE_BYTES
        service = make_service()
        ingest = LineIngest(service)
        assert ingest.feed(oversized_observe(MAX_LINE_BYTES) + b"\n") == b""
        assert (service.stats()["observations"], service.parse_errors) == (1, 0)
        answer = json.loads(ingest.feed(oversized_observe(MAX_LINE_BYTES + 1) + b"\n"))
        assert answer == {"error": "line 2: line longer than 65536 bytes", "line": 2}
        assert (service.stats()["observations"], service.parse_errors) == (1, 1)

    def test_bytes_of_an_oversized_line_are_not_buffered(self):
        service = make_service()
        ingest = LineIngest(service)
        piece = b"x" * 4096
        assert b"".join(ingest.feed(piece) for _ in range(256)) == b""  # 1 MiB, no newline
        assert len(ingest._partial) == MAX_LINE_BYTES + 1
        first, second = ingest.feed(b'xx\n{"op":"flush"}\n').splitlines()
        assert json.loads(first) == {"error": "line 1: line longer than 65536 bytes", "line": 1}
        assert json.loads(second) == {"op": "flush", "ok": True}
        assert service.parse_errors == 1 and len(ingest._partial) == 0

    def test_oversized_last_line_without_newline_is_answered_at_eof(self):
        ingest = LineIngest(make_service())
        assert ingest.feed(b"x" * 70_000) == b""
        assert json.loads(ingest.feed(b""))["line"] == 1
        assert ingest.feed(b"") == b""

    def test_tcp_connection_survives_an_oversized_line(self):
        with ServerThread(make_service()) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
                reader = sock.makefile("r", encoding="utf-8", newline="\n")
                sock.sendall(self.FEED)
                rejected = json.loads(reader.readline())
                stats = json.loads(reader.readline())
        assert rejected == {"error": "line 2: line longer than 65536 bytes", "line": 2}
        assert stats["op"] == "stats"
        assert (stats["observations"], stats["parse_errors"]) == (1, 1)

    def test_pipe_mode_rejects_an_oversized_line_and_keeps_serving(self):
        out = io.StringIO()
        service = make_service()
        rejected = run_stdin(service, io.StringIO(self.FEED.decode()), out)
        assert rejected == 1
        first, stats = [json.loads(line) for line in out.getvalue().splitlines()]
        assert first == {"error": "line 2: line longer than 65536 bytes", "line": 2}
        assert (stats["observations"], stats["parse_errors"], stats["streams"]) == (1, 1, 1)


#: Lines a group scan must either take with the one-line path's answer or hand
#: back to that path: every shape of event, blank and whitespace lines, bytes
#: the strict scanner refuses, and lines that could forge element boundaries
#: if brackets were allowed (the first two would scan as one ``[{"a":[[1]]}]``
#: spread over two lines, the third as two elements of its own).
ODD_LINES = [
    b'{"receiver": "gamma", "sender": 1, "nbytes": 10}',
    b'{"nbytes":20,"receiver":"gamma","sender":2}',
    b'{"sender": 3, "nbytes": 30, "receiver": "delta"}',
    b'{"op": "observe", "receiver": "gamma", "sender": 1, "nbytes": 10}',
    b'{"op": "predict", "receiver": "gamma"}',
    b'{"op": "predict", "receiver": "delta", "horizon": 3}',
    b'{"op": "expects", "receiver": "gamma", "sender": 1}',
    b'{"op": "stats"}',
    b'{"op": "flush"}',
    b'{"receiver": "r[1]", "sender": 1, "nbytes": 10}',
    b'{"op": "predict", "receiver": "r[1]"}',
    b'{"receiver": "gamma", "sender": 1, "nbytes": 10} {"op": "flush"}',
    b'{"receiver": "gamma", "sender": 1, "nbytes": 10},{"op": "flush"}',
    b'{"receiver": "gam',
    b"",
    b"   \t ",
    b"\x0c",
    b'\x0c{"op": "flush"}',
    b'{"receiver": "gamma", "sender": 2, "nbytes": 20}\r',
    b'{"receiver": "\xff\xfe", "sender": 1, "nbytes": 10}',
    b'\xff{"op": "flush"}',
    b'{"receiver": "gamma", "sender": NaN, "nbytes": 10}',
    b'{"receiver": "gamma", "receiver": "delta", "sender": 1, "nbytes": 10}',
    b'{"receiver": "delta", "sender": 1, "sender": -1, "nbytes": 10}',
    b'{"a":' * 5000 + b"1" + b"}" * 5000,
    b'{"receiver": 1, "nbytes": 1, "sender": ' + b"9" * 5000 + b"}",
    oversized_observe(MAX_LINE_BYTES + 10),
    b'{"a":[[1',
    b'2]]}',
    b'{"b":1}],[{"c":2}',
    b'"just a string"',
    b"7",
    b"null",
    b"{}",
    b'{"op": 5}',
]


def one_line_at_a_time(feed: bytes, monkeypatch=None):
    """A fresh core fed one line per call; with ``monkeypatch``, the group
    scan refuses every group, so each line takes the one-line path alone."""
    service = make_service()
    ingest = LineIngest(service)
    if monkeypatch is not None:
        monkeypatch.setattr(server_module, "_scan_group", lambda group: None)
    out = [ingest.feed(line) for line in feed.splitlines(keepends=True)]
    out.append(ingest.feed(b""))
    if monkeypatch is not None:
        monkeypatch.undo()
    return b"".join(out), service


class TestGroupScanIsInvisible:
    """``LineIngest`` scans up to 128 complete lines in one JSON call: the
    answers, their line numbers and ``parse_errors`` are those of the one-line path."""

    @staticmethod
    def random_feed(rng, lines):
        picks = [rng.choice(ODD_LINES) for _ in range(lines)]
        # Plain observes between the odd lines, so most groups scan whole.
        for index in range(0, len(picks), 3):
            picks[index] = ODD_LINES[index % 3]
        return b"\n".join(picks) + rng.choice([b"", b"\n"])

    @pytest.mark.parametrize("seed", range(6))
    def test_random_mixes_cut_at_random_offsets(self, seed, monkeypatch):
        rng = random.Random(seed)
        feed = self.random_feed(rng, rng.choice([40, 300, 700]))
        expected, reference = one_line_at_a_time(feed, monkeypatch)
        singles, single_service = one_line_at_a_time(feed)
        assert singles == expected
        assert single_service.parse_errors == reference.parse_errors
        cuts = sorted(rng.sample(range(1, len(feed)), 6))
        served, service = chunked(feed, cuts)
        assert served == expected
        assert service.parse_errors == reference.parse_errors
        assert service.stats() == reference.stats()

    def test_each_odd_line_between_two_observes(self, monkeypatch):
        """One group of three lines per odd line: each is scanned with plain
        neighbours or hands the group back, and line numbers stay right."""
        for odd in ODD_LINES:
            feed = b"\n".join([ODD_LINES[0], odd, ODD_LINES[1], ODD_LINES[4]]) + b"\n"
            expected, reference = one_line_at_a_time(feed, monkeypatch)
            served, service = chunked(feed, [])
            assert served == expected, odd[:60]
            assert service.parse_errors == reference.parse_errors, odd[:60]

    def test_the_scan_takes_plain_groups_and_refuses_forgeries(self):
        scan = server_module._scan_group
        assert scan([ODD_LINES[0], ODD_LINES[8], b"  ", ODD_LINES[19]]) == [
            [{"receiver": "gamma", "sender": 1, "nbytes": 10}],
            [{"op": "flush"}],
            [],
            [{"receiver": "\ufffd\ufffd", "sender": 1, "nbytes": 10}],
        ]
        refused = [
            [b'{"a":[[1', b"2]]}"],
            [b'{"b":1}],[{"c":2}'],
            [ODD_LINES[9]],
            [b'{"receiver": "gam', ODD_LINES[0]],
            [b"\x0c"],
            [ODD_LINES[0], oversized_observe(MAX_LINE_BYTES + 1)],
        ]
        assert [scan(group) for group in refused] == [None] * len(refused)

    def test_300_lines_are_scanned_as_groups_of_128(self, monkeypatch):
        scan, sizes = server_module._scan_group, []

        def counting_scan(group):
            sizes.append(len(group))
            return scan(group)

        monkeypatch.setattr(server_module, "_scan_group", counting_scan)
        service = make_service()
        assert LineIngest(service).feed(b"\n".join([ODD_LINES[0]] * 300) + b"\n") == b""
        assert sizes == [128, 128, 44]
        assert (service.stats()["observations"], service.parse_errors) == (300, 0)

    def test_a_64k_read_of_observes_adds_little_beyond_its_lines(self):
        """The group scan's text and what it scans to are held one group at a
        time: scanning a whole 64 KiB read at once took about 480 KB."""
        service = ServeService("last-value", num_shards=2)  # state of a fixed size
        ingest = LineIngest(service)
        lines = [
            b'{"nbytes":%d,"receiver":"r%d","sender":%d}' % (512 * (i % 3), (i // 8) % 16, i % 5)
            for i in range(1600)
        ]
        read = b"\n".join(lines)[:65536]
        lines = read[: read.rindex(b"\n")].split(b"\n")
        ingest._serve(list(lines), [])  # every stream exists
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ingest._serve(lines, [])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(lines) > 1400 and peak < 128 * 1024, peak


class TestConnectionsDoNotWaitForEachOther:
    def test_flush_on_one_connection_covers_what_another_sent(self):
        with ServerThread(make_service()) as server:
            with ServeClient.connect(port=server.port) as a, ServeClient.connect(
                port=server.port
            ) as b:
                ingest_patterns(a, repetitions=10)  # ends in a's own flush...
                for _ in range(7):
                    a.observe("alpha", 1, 100)  # ...these do not
                # a's predict answer proves the server has read the 7 lines
                # before it; nothing sits in a queue that b would have to drain.
                a.predict("beta")
                assert b.flush() == {"op": "flush", "ok": True}
                assert b.stats()["observations"] == 10 * 5 + 7

    def test_query_is_answered_while_another_connection_has_a_megabyte_in_flight(self):
        line = b'{"receiver": "alpha", "sender": 1, "nbytes": 100}\n'
        count = 1_200_000 // len(line)
        payload = line * count
        assert len(payload) >= 1_000_000
        with ServerThread(make_service()) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=30) as a:
                sender = threading.Thread(target=a.sendall, args=(payload,))
                sender.start()
                try:
                    with ServeClient.connect(port=server.port, timeout=10) as b:
                        assert b.predict("never-seen")["known"] is False
                        seen_by_b = b.stats()["observations"]
                finally:
                    sender.join(timeout=30)
                assert not sender.is_alive()
                assert seen_by_b < count, "b was only answered after all of a's lines"
                a.sendall(b'{"op": "stats"}\n')
                reader = a.makefile("r", encoding="utf-8", newline="\n")
                assert json.loads(reader.readline())["observations"] == count

    def test_a_peer_reset_drops_that_connection_only(self):
        # ~1 MB of predict lines, padded so that their answers fit the socket
        # buffers and the send completes unread; SO_LINGER 0 turns the close
        # into a reset while the server still holds a's lines and answers.
        line = b'{"op": "predict", "receiver": "nobody"' + b" " * 4000 + b"}\n"
        payload = line * (1_000_000 // len(line) + 1)
        feed = mixed_feed()
        expected, _ = line_by_line(feed)
        with ServerThread(make_service()) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=30) as a:
                a.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                a.sendall(payload)
            with socket.create_connection(("127.0.0.1", server.port), timeout=30) as b:
                b.sendall(feed)
                b.shutdown(socket.SHUT_WR)
                served = b"".join(iter(lambda: b.recv(65536), b""))
            assert served == expected
            with ServeClient.connect(port=server.port, timeout=10) as client:
                assert client.shutdown() == {"op": "shutdown", "ok": True}
            server._thread.join(timeout=10)
            assert not server._thread.is_alive()

    def test_a_client_that_never_reads_stalls_only_itself(self):
        # 1M malformed 2-byte lines ask for ~60 MB of error answers, more than
        # the socket buffers between the server and a hold; a never reads.
        lines = 1_000_000
        a = socket.socket()
        a.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        a.settimeout(30)

        def send_and_never_read():
            try:
                a.sendall(b"x\n" * lines)
            except OSError:
                pass  # closed under us at the end of the test

        sender = threading.Thread(target=send_and_never_read, daemon=True)
        try:
            with ServerThread(make_service()) as server:
                a.connect(("127.0.0.1", server.port))
                sender.start()
                with ServeClient.connect(port=server.port, timeout=10) as b:
                    deadline = time.monotonic() + 30
                    before = -1
                    while True:  # until a's handler has stopped making progress
                        assert time.monotonic() < deadline, "a never stalled"
                        now = b.stats()["parse_errors"]
                        if now == before and now > 0:
                            break
                        before = now
                        time.sleep(0.1)
                    assert now < lines, "a was answered in full: nothing stalled"
                    ingest_patterns(b)
                    assert b.predict("alpha") == offline_responses()["alpha"]
            # Leaving the block shut the server down with a still connected,
            # its answers unread: the stalled handler must not keep it alive.
        finally:
            a.close()
            sender.join(timeout=30)
        assert not sender.is_alive()


class TestStdinTransport:
    def test_pipe_mode_matches_direct_drive(self):
        lines = []
        for _ in range(12):
            for key, pattern in PATTERNS.items():
                for sender, nbytes in pattern:
                    lines.append(json.dumps({"receiver": key, "sender": sender, "nbytes": nbytes}))
        for key in PATTERNS:
            lines.append(json.dumps({"op": "predict", "receiver": key}))
        out = io.StringIO()
        rejected = run_stdin(make_service(), io.StringIO("\n".join(lines) + "\n"), out)
        assert rejected == 0
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert {r["receiver"]: r for r in responses} == offline_responses()

    def test_pipe_mode_counts_rejected_lines(self):
        feed = 'garbage\n\n{"op": "flush"}\n'
        out = io.StringIO()
        service = make_service()
        rejected = run_stdin(service, io.StringIO(feed), out)
        assert rejected == 1
        assert service.parse_errors == 1
        first, second = [json.loads(line) for line in out.getvalue().splitlines()]
        assert first == {"error": "line 1: invalid JSON: Expecting value", "line": 1}
        assert second == {"op": "flush", "ok": True}

    def test_pipe_mode_rejects_count_beyond_int64_and_keeps_serving(self):
        out = io.StringIO()
        rejected = run_stdin(make_service(), io.StringIO(BEYOND_INT64_FEED), out)
        assert rejected == 1
        first, second = [json.loads(line) for line in out.getvalue().splitlines()]
        assert first["line"] == 2
        assert first["error"].startswith("line 2: nbytes must be <= 2**63 - 1")
        assert second["op"] == "predict"
        assert second["known"] is True

    def test_pipe_mode_rejects_horizon_beyond_the_bound_and_keeps_serving(self):
        out = io.StringIO()
        rejected = run_stdin(make_service(), io.StringIO(HUGE_HORIZON_FEED), out)
        assert_huge_horizon_answers(
            [json.loads(line) for line in out.getvalue().splitlines()], rejected
        )

    def test_pipe_mode_rejects_snapshot_dir_with_nul_or_surrogate_and_keeps_serving(self):
        out = io.StringIO()
        rejected = run_stdin(make_service(), io.StringIO(HOSTILE_SNAPSHOT_FEED), out)
        assert_hostile_snapshot_answers(
            [json.loads(line) for line in out.getvalue().splitlines()], rejected
        )

    def test_pipe_mode_rejects_a_deeply_nested_line_and_keeps_serving(self):
        out = io.StringIO()
        rejected = run_stdin(make_service(), io.StringIO(DEEP_NESTING_FEED), out)
        assert_deep_nesting_answers(
            [json.loads(line) for line in out.getvalue().splitlines()], rejected
        )

    def test_pipe_mode_rejects_a_long_integer_line_and_keeps_serving(self):
        out = io.StringIO()
        service = make_service()
        assert run_stdin(service, io.StringIO(LONG_INTEGER_FEED), out) == 1
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert_long_integer_answers(responses, service)

    def test_pipe_mode_failing_snapshot_answers_like_tcp(self, tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory")
        feed = json.dumps({"op": "snapshot", "dir": str(blocker / "snap")}) + '\n{"op": "flush"}\n'
        out = io.StringIO()
        rejected = run_stdin(make_service(), io.StringIO(feed), out)
        assert rejected == 0  # well-formed line; the op failed
        first, second = [json.loads(line) for line in out.getvalue().splitlines()]
        assert set(first) == {"error", "op"} and first["op"] == "snapshot"
        assert second == {"op": "flush", "ok": True}


class TestPredictAnswers:
    """``LineIngest`` writes a ``predict`` answer from the two forecast lists:
    byte for byte what the generic encoder gives for ``ServeService.handle``'s dict."""

    KEYS = ["plain", 'quo"te', "back\\slash", "ctl\x00\x1f\t\n", "ключ", 7]
    HORIZONS = [*range(1, 41), *range(41, MAX_HORIZON, 97), MAX_HORIZON]

    @staticmethod
    def feed_lines(rng, keys, horizons):
        """Observes (period 3 for most streams, 1 or 2 samples for a young one),
        each followed now and then by a predict, and predicts of a key never seen."""
        lines = []
        for step in range(300):
            key = keys[step % len(keys)]
            if key == keys[-1] and step >= len(keys) * 2:  # stays young
                key = keys[0]
            lines.append(encode_event(receiver=key, sender=step % 3, nbytes=64 << (step % 3)))
            if rng.random() < 0.5:
                key = rng.choice([*keys, "never-seen"])
                lines.append(encode_event(op="predict", receiver=key, horizon=rng.choice(horizons)))
        for horizon in horizons:
            for key in (keys[0], keys[-1], "never-seen"):
                lines.append(encode_event(op="predict", receiver=key, horizon=horizon))
        lines.append(encode_event(op="predict", receiver=keys[1]))  # the spec's horizon
        return lines

    @staticmethod
    def reference(spec, lines):
        """The answers of ``ServeService.handle``, one parsed line at a time."""
        service = ServeService(spec, num_shards=2)
        answers = []
        for number, line in enumerate(lines, 1):
            response = service.handle(parse_event_line(line, number))
            if response is not None:
                answers.append(protocol._encode(response).encode() + b"\n")
        return b"".join(answers), service

    @pytest.mark.parametrize("kind", predictor_names())
    def test_every_kind_answers_the_generic_bytes(self, kind):
        assert kind in {"periodicity", "last-value", "most-frequent", "cycle", "markov", "stride"}
        spec = "periodicity:window=3,max_period=8" if kind == "periodicity" else kind
        rng = random.Random(kind)
        lines = self.feed_lines(rng, self.KEYS, self.HORIZONS)
        expected, reference = self.reference(spec, lines)
        feed = "".join(line + "\n" for line in lines).encode()
        service = ServeService(spec, num_shards=2)
        ingest = LineIngest(service)
        cuts = sorted(rng.sample(range(1, len(feed)), 25))
        out = [ingest.feed(feed[a:b]) for a, b in zip([0, *cuts], [*cuts, len(feed)])]
        assert b"".join(out) + ingest.feed(b"") == expected
        assert service.stats() == reference.stats()
        answers = [json.loads(line) for line in expected.splitlines()]
        assert {answer["known"] for answer in answers} == {True, False}
        young = [a for a in answers if a["receiver"] == str(self.KEYS[-1])]
        if kind in ("periodicity", "markov"):
            assert all(p == {"nbytes": None, "sender": None} for a in young for p in a["predictions"])
        assert {len(a["predictions"]) for a in answers if a["known"]} >= set(self.HORIZONS)

    def test_the_periodic_stream_is_replayed_past_its_period(self):
        lines = self.feed_lines(random.Random(3), self.KEYS, self.HORIZONS)
        expected, _ = self.reference("periodicity:window=3,max_period=8", lines)
        longest = json.loads(expected.splitlines()[-4])  # the plain key at MAX_HORIZON
        assert longest["receiver"] == "plain" and len(longest["predictions"]) == MAX_HORIZON
        predictions = longest["predictions"]
        assert predictions != predictions[:1] * MAX_HORIZON
        assert any(predictions[period:] == predictions[:-period] for period in range(2, 9))

    def test_encode_predict_is_the_generic_encoder_on_handles_dict(self):
        for receiver in ("r", 'a"\\b\x01', "é\u2028"):
            for forecast in (None, ([], []), ([1, None, 3], [None, 8, 2**63 - 1])):
                predictions = [
                    {"sender": s, "nbytes": n} for s, n in zip(*forecast or ((), ()))
                ]
                answer = {
                    "op": "predict",
                    "receiver": receiver,
                    "known": forecast is not None,
                    "predictions": predictions,
                }
                assert protocol.encode_predict(receiver, forecast) == protocol._encode(answer)
                assert encode_response(answer) == protocol._encode(answer)


class TestYoungStreams:
    """Visits that end inside a stream's first window (8 observes + a query,
    three times over, window 24) are appends on the coalesced path: same
    answers, same stream state as one ``observe`` per message."""

    def test_cold_visits_through_the_ingest_equal_one_call_per_message(self):
        rng = random.Random(20)
        keys = [f"k{index}" for index in range(200)]
        coalesced, direct = ServeService(num_shards=2), ServeService(num_shards=2)
        ingest = LineIngest(coalesced)
        for visit in range(3):
            for key in keys:
                messages = [(rng.randrange(4), 64 << rng.randrange(3)) for _ in range(8)]
                lines = [encode_event(receiver=key, sender=s, nbytes=b) for s, b in messages]
                lines.append(encode_event(op="predict", receiver=key))
                for sender, nbytes in messages:
                    direct.observe(key, sender, nbytes)
                answer = direct.handle_line(lines[-1])
                assert ingest.feed(("\n".join(lines) + "\n").encode()) == (
                    encode_response(answer) + "\n"
                ).encode()
                assert answer["known"] is True
                assert answer["predictions"] == [{"sender": None, "nbytes": None}] * 5
        for key in keys:
            ours = coalesced.shard_for(key).table.get(key)
            theirs = direct.shard_for(key).table.get(key)
            assert ours.observations == theirs.observations == 24
            assert freeze_state(ours.predictor) == freeze_state(theirs.predictor)


class TestUnbuildableSpecFailsAtConstruction:
    """A predictor spec that cannot build is refused before a line is read,
    not by the first observe."""

    @pytest.mark.parametrize(
        "spec, error, fragment",
        [
            ("nope", KeyError, "unknown predictor 'nope'"),
            ("periodicity:windw=3", TypeError, "predictor 'periodicity': "),
            ("periodicity:window=0", ValueError, "window_size must be positive"),
        ],
    )
    def test_service_and_cli_refuse_it(self, spec, error, fragment, monkeypatch, capsys):
        with pytest.raises(error, match=fragment):
            ServeService(spec)
        unread = io.StringIO('{"op": "flush"}\n')
        monkeypatch.setattr("sys.stdin", unread)
        assert cli_main(["serve", "--stdin", "--predictor", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and unread.tell() == 0
        assert captured.err.startswith("cannot build the serve service: ")
        assert fragment in captured.err and captured.err.count("\n") == 1
