"""The ingestion front end of ``repro serve``: one core, two transports.

:class:`LineIngest` is a connection's whole data path, request bytes in and
response bytes out: split what was read on ``\\n``, keep the partial last line
for the next read, parse each complete line with its 1-based number, coalesce
consecutive same-stream observes into one ``Shard.observe_batch`` and run
every other op inline through :meth:`ServeService.handle`.  Nothing is
queued, so a query sees every event any connection sent before it and
``flush`` / ``stats`` / ``snapshot`` / ``shutdown`` need no barrier.  The
outputs depend on the bytes fed, never on how they were coalesced or where
the reads cut them.  A malformed line never kills a connection: it is
answered ``{"error": "line N: ...", "line": N}`` and the next one is served.

Both transports are the same loop around it: read what is there, feed, write
the answers at once.  Over TCP (:class:`ServeServer`) every shard lives on
the event-loop thread, so the only concurrency is between connections: a
handler yields to the loop after each chunk, and backpressure is TCP flow
control — a client that does not read its answers stalls its own handler in
``drain()``, which stops reading that client's requests and nobody else's.
:func:`run_stdin` is the one-shot pipe mode; it never imports ``asyncio``,
which only :class:`ServeServer` needs.  ``docs/serving.md`` has more.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, TextIO

from repro.serve.protocol import ServeProtocolError, encode_response, parse_event_line
from repro.serve.service import ServeService
from repro.serve.snapshot import SnapshotError

if TYPE_CHECKING:
    import asyncio

__all__ = ["LineIngest", "MAX_LINE_BYTES", "ServeServer", "run_stdin"]

#: Bytes asked of one read, and the longest request line served (newline
#: excluded): the bound ``asyncio.StreamReader.readline`` put on TCP lines
#: before this core existed (a longer one killed its connection; stdin had no
#: bound), so no line that was served is rejected now.  As a read size it
#: spreads the per-read costs (write, drain or flush, yield) over ~1000 lines.
MAX_LINE_BYTES = 65536


class LineIngest:
    """One connection's request bytes → response bytes; serves nothing after a ``shutdown``."""

    def __init__(self, service: ServeService) -> None:
        self.service = service
        self.shutdown = False
        self._line_number = 0  # of the last complete line
        self._partial = bytearray()  # the unterminated tail of what was fed

    def feed(self, data: bytes) -> bytes:
        """Serve the lines ``data`` completes (no data: end of input); returns the responses."""
        if self.shutdown:
            return b""
        *lines, tail = (data or b"\n").split(b"\n")
        out: list[str] = []
        if lines:
            lines[0] = bytes(self._partial) + lines[0]
            self._partial.clear()
            self._serve(lines, out)
        self._partial += tail
        # Past the bound a line is rejected whatever follows: keep that fact
        # (one byte too many), not the bytes.
        del self._partial[MAX_LINE_BYTES + 1 :]
        return "".join(out).encode("utf-8")

    def _serve(self, lines: list[bytes], out: list[str]) -> None:
        service = self.service
        run_key: str | None = None
        senders: list[int] = []
        sizes: list[int] = []

        def end_run() -> None:
            nonlocal run_key
            if run_key is not None:
                service.shard_for(run_key).observe_batch(run_key, senders, sizes)
                run_key = None
                senders.clear()
                sizes.clear()

        for raw in lines:
            self._line_number += 1
            number = self._line_number
            try:
                if len(raw) > MAX_LINE_BYTES:
                    raise ServeProtocolError(number, f"line longer than {MAX_LINE_BYTES} bytes")
                line = raw.decode("utf-8", errors="replace")
                if not line or line.isspace():
                    continue  # blank keep-alive lines are not events
                event = parse_event_line(line, number)
            except ServeProtocolError as error:
                service.parse_errors += 1
                out.append(encode_response({"error": str(error), "line": number}) + "\n")
                continue
            if event.op == "observe":
                if event.receiver != run_key:
                    end_run()
                    run_key = event.receiver
                senders.append(event.sender)
                sizes.append(event.nbytes)
                continue
            end_run()
            try:
                response = service.handle(event)
            except (SnapshotError, OSError) as error:
                response = {"error": str(error), "op": event.op}
            out.append(encode_response(response) + "\n")
            if event.op == "shutdown":
                self.shutdown = True
                return
        end_run()


class ServeServer:
    """Asyncio TCP front end over a synchronous :class:`ServeService`.

    Port 0 binds an ephemeral one: read :attr:`port` after :meth:`start`.
    """

    def __init__(self, service: ServeService, host: str = "127.0.0.1", port: int = 0) -> None:
        import asyncio

        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()

    async def start(self) -> None:
        """Bind the listener."""
        import asyncio

        self._server = await asyncio.start_server(self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` event arrives, then stop."""
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        """Close the listener (every event received has already been applied)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        import asyncio

        ingest = LineIngest(self.service)
        try:
            while not ingest.shutdown:
                chunk = await reader.read(MAX_LINE_BYTES)
                responses = ingest.feed(chunk)
                if responses:
                    writer.write(responses)
                    await writer.drain()
                if not chunk:
                    break
                # read() and drain() do not suspend while data is buffered and
                # the peer keeps up: yield, or this connection starves the rest.
                await asyncio.sleep(0)
        except OSError:
            pass  # peer gone: what it sent has been applied, nobody to answer
        except asyncio.CancelledError:
            # Loop going down: a graceful close would wait for the peer to read.
            writer.transport.abort()
            raise
        finally:
            if ingest.shutdown:
                self._shutdown.set()
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:  # pragma: no cover - peer gone
                pass


def run_stdin(service: ServeService, in_stream: TextIO, out_stream: TextIO) -> int:
    """One-shot pipe transport: events on ``in_stream``, responses out.

    The TCP loop over whatever bytes the pipe holds (``read1`` never waits to
    fill the chunk, so a closed-loop client gets each answer at once); a text
    stream with no byte layer, such as ``io.StringIO``, is read and written
    as text.  Returns the number of rejected lines (an exit status, maybe).
    """
    ingest = LineIngest(service)
    rejected_before = service.parse_errors
    byte_in = getattr(in_stream, "buffer", None)
    byte_out = getattr(out_stream, "buffer", None)
    while not ingest.shutdown:
        if byte_in is not None:
            chunk = byte_in.read1(MAX_LINE_BYTES)
        else:
            chunk = in_stream.read(MAX_LINE_BYTES).encode("utf-8")
        responses = ingest.feed(chunk)
        if byte_out is not None:
            byte_out.write(responses)
        else:
            out_stream.write(responses.decode("utf-8"))
        out_stream.flush()
        if not chunk:
            break
    return service.parse_errors - rejected_before
