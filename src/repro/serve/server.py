"""The ingestion front end of ``repro serve``: one core, two transports.

:class:`LineIngest` is a connection's whole data path, request bytes in and
response bytes out: split what was read on ``\\n``, keep the partial last line
for the next read, parse the complete lines (up to 128 in one JSON scan, see
:func:`_scan_group`) each with its 1-based number, coalesce consecutive
same-stream observes into one ``Shard.observe_batch`` (a run of one is one
``Shard.observe``), answer a ``predict`` from ``Shard.forecast``'s lists
(:func:`encode_predict`) and run every other op inline through
:meth:`ServeService.handle`.  Nothing is queued, so a query
sees every event any connection sent before it and ``flush`` / ``stats`` /
``snapshot`` / ``shutdown`` need no barrier.  The outputs depend on the bytes
fed, never on how they were coalesced or scanned or where the reads cut
them.  A malformed line never kills a connection: it is answered
``{"error": "line N: ...", "line": N}`` and the next one is served.

Both transports are the same loop around it: read what is there, feed, write
the answers at once.  Over TCP (:class:`ServeServer`) one ``selectors`` loop
owns every shard, so the only concurrency is between connections: each ready
peer gets one read per round, and a peer owed answers is watched for write
only (TCP flow control: a client that does not read stalls itself, nobody
else).  ``docs/serving.md`` has more.
"""

from __future__ import annotations

from typing import TextIO

from repro.serve.protocol import (
    ServeEvent,
    ServeProtocolError,
    _scan_once,
    encode_predict,
    encode_response,
    event_from_payload,
    parse_event_line,
)
from repro.serve.service import ServeService
from repro.serve.snapshot import SnapshotError

__all__ = ["LineIngest", "MAX_LINE_BYTES", "ServeServer", "run_stdin"]

#: Bytes asked of one read, and the longest request line served (newline
#: excluded; TCP lines had that bound under ``asyncio``): as a read size it
#: spreads the per-read costs (select, send or flush) over ~1000 lines.
MAX_LINE_BYTES = 65536

#: Complete lines scanned by one JSON call: the group's text and what it
#: scans to stay near 65 KB, where a whole 64 KiB read scanned at once took
#: about 480 KB.
_SCAN_LINES = 128


def _scan_group(group: list[bytes]) -> list | None:
    """The lines of ``group`` scanned as one JSON array, ``[[line 1]\\n,[line 2]…]``:
    one list per line, ``[]`` for a blank one, ``[object]`` for an event.

    ``None`` when a line is longer than :data:`MAX_LINE_BYTES`, holds a ``[``
    or ``]`` byte, or the scanner refuses the text.  Without brackets in the
    lines the wrappers are the only ones, so no line can forge an element
    boundary (``{"b":1}],[{"c":2}`` would scan as two elements); and the
    strict scanner refuses the raw ``\\n`` of a separator inside a string, so
    no string spans two lines.  Decoding the joined bytes replaces an invalid
    UTF-8 sequence as decoding its line alone does: ASCII ends one.
    """
    if max(map(len, group)) > MAX_LINE_BYTES:
        return None
    blob = b"[[" + b"]\n,[".join(group) + b"]]"
    brackets = len(group) + 1
    if blob.count(b"[") != brackets or blob.count(b"]") != brackets:
        return None
    text = blob.decode("utf-8", errors="replace")
    try:
        elements, end = _scan_once(text, 0)
    except (StopIteration, ValueError, RecursionError):
        return None
    return elements if end == len(text) else None


def _parse_line(raw: bytes, number: int) -> ServeEvent | None:
    """One line on its own (``None`` for a blank one): the path that words every error."""
    if len(raw) > MAX_LINE_BYTES:
        raise ServeProtocolError(number, f"line longer than {MAX_LINE_BYTES} bytes")
    line = raw.decode("utf-8", errors="replace")
    if not line or line.isspace():
        return None  # blank keep-alive lines are not events
    return parse_event_line(line, number)


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
                if len(senders) == 1:
                    service.shard_for(run_key).observe(run_key, senders[0], sizes[0])
                else:
                    service.shard_for(run_key).observe_batch(run_key, senders, sizes)
                run_key = None
                senders.clear()
                sizes.clear()

        number = self._line_number
        for start in range(0, len(lines), _SCAN_LINES):
            group = lines[start : start + _SCAN_LINES]
            for raw, element in zip(group, _scan_group(group) or [None] * len(group)):
                number += 1
                try:
                    if element is not None and len(element) == 1 and type(element[0]) is dict:
                        event = event_from_payload(element[0], number)
                    elif element == []:
                        continue  # a blank line
                    else:  # not scanned, or not one object: the line alone words it
                        event = _parse_line(raw, number)
                        if event is None:
                            continue
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
                if event.op == "predict":
                    receiver = event.receiver
                    forecast = service.shard_for(receiver).forecast(receiver, event.horizon)
                    out.append(encode_predict(receiver, forecast) + "\n")
                    continue
                try:
                    response = service.handle(event)
                except (SnapshotError, OSError) as error:
                    response = {"error": str(error), "op": event.op}
                out.append(encode_response(response) + "\n")
                if event.op == "shutdown":
                    self.shutdown = True
                    return
        self._line_number = number
        end_run()


class ServeServer:
    """TCP front end: one ``selectors`` loop over a synchronous :class:`ServeService`.

    Port 0 binds an ephemeral one: read :attr:`port` after :meth:`start`.
    """

    def __init__(self, service: ServeService, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._selector = None

    def start(self) -> None:
        """Bind the listener."""
        import selectors
        import socket

        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        listener = socket.create_server((self.host, self.port), family=family)
        listener.setblocking(False)
        self.port = listener.getsockname()[1]
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ)

    def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` answer is sent, then stop (also on an interrupt).

        A round serves each ready peer once: one that is owed answers is sent
        what its window takes, any other has one read served.
        """
        from selectors import EVENT_READ, EVENT_WRITE
        from socket import IPPROTO_TCP, TCP_NODELAY

        try:
            while True:
                for key, _ in self._selector.select():
                    if key.data is None:  # the listener: a new peer
                        try:
                            sock = key.fileobj.accept()[0]
                        except OSError:  # pragma: no cover - aborted first, or no fd left
                            continue
                        sock.setblocking(False)
                        sock.setsockopt(IPPROTO_TCP, TCP_NODELAY, 1)  # no Nagle wait for answers
                        state = (LineIngest(self.service), bytearray())
                        self._selector.register(sock, EVENT_READ, state)
                        continue
                    sock, (ingest, unsent) = key.fileobj, key.data
                    gone = False
                    try:
                        if not unsent:
                            chunk = sock.recv(MAX_LINE_BYTES)
                            gone = not chunk  # end of input: close once it is answered
                            unsent += ingest.feed(chunk)
                        if unsent:
                            del unsent[: sock.send(unsent)]
                    except BlockingIOError:
                        pass  # the peer's window is full: the rest goes when it is writable
                    except OSError:
                        gone = True  # peer gone: what it sent is applied, nobody to answer
                        unsent.clear()
                    if unsent:  # stop reading this peer until it takes its answers
                        self._selector.modify(sock, EVENT_WRITE, key.data)
                    elif ingest.shutdown:
                        return
                    elif gone:
                        self._selector.unregister(sock)
                        sock.close()
                    else:
                        self._selector.modify(sock, EVENT_READ, key.data)
        finally:
            self.stop()

    def stop(self) -> None:
        """Close every connection and the listener (every event received has been applied)."""
        if self._selector is not None:
            for key in self._selector.get_map().values():
                key.fileobj.close()
            self._selector.close()
            self._selector = None


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
