"""End-to-end tests for the asyncio serve front end (repro.serve.server).

A real TCP server runs on an ephemeral port inside a background event-loop
thread; the blocking :class:`repro.serve.client.ServeClient` drives it from
the test thread.  The contract: batched, backpressured ingestion is
invisible in the responses (bit-identical to a direct service drive),
responses come back in request order, malformed lines answer with a
line-numbered error without killing the connection, and snapshot → restart →
identical responses works over the wire.
"""

import asyncio
import io
import json
import socket
import threading

import pytest

from repro.serve.client import ServeClient, ServeResponseError
from repro.serve.server import ServeServer, run_stdin
from repro.serve.service import ServeService

SPEC = "periodicity:window=6,max_period=12,horizon=4"

#: Line 2 carries 2**70: a Python int to ``json``, but it does not fit the
#: int64 streams, so it must be rejected at the wire and never reach a shard.
BEYOND_INT64_FEED = (
    '{"receiver": "alpha", "sender": 1, "nbytes": 100}\n'
    '{"receiver": "alpha", "sender": 2, "nbytes": 1180591620717411303424}\n'
    '{"op": "predict", "receiver": "alpha"}\n'
)

PATTERNS = {
    "alpha": [(1, 100), (2, 200)],
    "beta": [(3, 300), (4, 400), (5, 500)],
}


def make_service(num_shards=2, **kwargs):
    return ServeService(SPEC, num_shards=num_shards, **kwargs)


class ServerThread:
    """A ServeServer running in its own event-loop thread."""

    def __init__(self, service, **server_kwargs):
        self.service = service
        self.server_kwargs = server_kwargs
        self.port = None
        self._started = threading.Event()
        self._failure = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            server = ServeServer(self.service, port=0, **self.server_kwargs)
            await server.start()
            self.port = server.port
            self._started.set()
            await server.serve_until_shutdown()

        try:
            asyncio.run(main())
        except BaseException as error:  # surface crashes to the test thread
            self._failure = error
            self._started.set()

    def __enter__(self):
        self._thread.start()
        assert self._started.wait(timeout=10), "server did not start"
        if self._failure is not None:
            raise self._failure
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

    def test_tiny_batches_are_invisible(self):
        # batch_size=1 defeats all coalescing; queue_depth=2 forces constant
        # backpressure. Responses must be bit-identical regardless.
        with ServerThread(make_service(), batch_size=1, queue_depth=2) as server:
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

    def test_two_connections_share_the_service(self):
        with ServerThread(make_service()) as server:
            with ServeClient.connect(port=server.port) as writer_client:
                ingest_patterns(writer_client)
            with ServeClient.connect(port=server.port) as reader_client:
                assert reader_client.predict("alpha")["known"] is True


class TestServerValidation:
    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            ServeServer(make_service(), queue_depth=0)
        with pytest.raises(ValueError):
            ServeServer(make_service(), batch_size=0)


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
