"""The serve wire protocol: newline-delimited JSON events and responses.

One event per line, each line one JSON object.  The ``op`` key selects the
operation and defaults to ``"observe"`` (the overwhelmingly common case on
the ingest path, so plain ``{"receiver": ..., "sender": ..., "nbytes": ...}``
lines work verbatim — which is exactly the shape of a recorded trace's
per-receiver records).

Operations
----------
``observe``
    ``receiver`` (int or string key), ``sender`` (int ≥ 0), ``nbytes``
    (int ≥ 0).  Feeds one message into the receiver's stream state.  No
    response (fire-and-forget; send a ``flush`` to hear that it was
    applied).  Counts
    (``sender``, ``nbytes``, ``horizon``) above ``2**63 - 1`` are rejected:
    the predictors hold samples as int64.
``predict``
    ``receiver``, optional ``horizon`` (int from 1 to :data:`MAX_HORIZON`).
    Responds with the next expected ``(sender, nbytes)`` pairs.
``expects``
    ``receiver``, ``sender``, optional ``nbytes``.  Responds with whether
    the receiver predicts a message from that sender.
``stats``
    Service-wide counters (streams, observations, evictions, resident
    bytes, per-shard breakdown).
``flush``
    Acknowledgement.  Lines are applied in order as they are read and nothing
    is queued, so its answer means every event before it has been applied.
``snapshot``
    ``dir`` (non-empty string, no NUL, encodable as UTF-8).  Writes a full
    service snapshot (manifest + one file per shard) and responds with what
    was written.
``shutdown``
    Answered, then nothing more is served on that connection and the server
    stops (``ServeService.handle`` itself only acknowledges it).

A line costs one C scan (``json``'s scanner, called directly; ``json.loads``
only words the error of a line it refused) and one pass of checks
(:func:`event_from_payload`); ``LineIngest`` scans up to 128 lines in one
call and checks each object the same way.
Malformed lines raise :class:`ServeProtocolError` carrying the 1-based line
number — same shape as :class:`repro.trace.import_dumpi.DumpiParseError`, so
ingestion rejects garbage with a pointed ``line N: ...`` message instead of
polluting stream state.  Servers turn the error into an ``{"error": ...}``
response and keep serving; they answer a line longer than 65,536 bytes the
same way without parsing it (:data:`repro.serve.server.MAX_LINE_BYTES`).

Responses are encoded by :func:`encode_response` with sorted keys and no
whitespace.  The ``predict`` answer — the one response on the per-message
path — is written by :func:`encode_predict` straight from the two forecast
lists, byte-equal to what :func:`encode_response` gives for the answer
``ServeService.handle`` builds.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

__all__ = [
    "MAX_HORIZON",
    "OPS",
    "ServeEvent",
    "ServeProtocolError",
    "parse_event_line",
    "event_from_payload",
    "encode_event",
    "encode_predict",
    "encode_response",
]


class ServeProtocolError(ValueError):
    """A malformed serve event line (carries the 1-based line number)."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class ServeEvent(NamedTuple):
    """One parsed wire event (unused fields are ``None``)."""

    op: str
    receiver: str | None = None
    sender: int | None = None
    nbytes: int | None = None
    horizon: int | None = None
    dir: str | None = None


#: Largest ``horizon`` a ``predict`` may ask for: its answer, about 40 bytes a
#: prediction, stays under ``MAX_LINE_BYTES`` and costs no more than a long line.
MAX_HORIZON = 1024

#: op name -> (required keys, optional keys, the required and all allowed as sets)
OPS: dict[str, tuple[tuple[str, ...], tuple[str, ...], frozenset, frozenset]] = {
    op: (required, optional, frozenset(required), frozenset(required + optional))
    for op, (required, optional) in {
        "observe": (("receiver", "sender", "nbytes"), ()),
        "predict": (("receiver",), ("horizon",)),
        "expects": (("receiver", "sender"), ("nbytes",)),
        "stats": ((), ()),
        "flush": ((), ()),
        "snapshot": (("dir",), ()),
        "shutdown": ((), ()),
    }.items()
}

#: The C scanner ``json.loads`` ends in, without the three frames around it.
_scan_once = json.JSONDecoder().scan_once

_new_tuple = tuple.__new__


def _coerce_key(value, line_number: int) -> str:
    """Canonicalise a stream key: ints and strings address the same table."""
    if isinstance(value, bool):
        raise ServeProtocolError(line_number, f"receiver must be an int or string, got {value!r}")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        if not value:
            raise ServeProtocolError(line_number, "receiver key must not be empty")
        try:  # routing and snapshots hold keys as UTF-8; "\ud800" is valid JSON
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ServeProtocolError(
                line_number, f"receiver key must be encodable as UTF-8, got {value!r}"
            ) from None
        return value
    raise ServeProtocolError(line_number, f"receiver must be an int or string, got {value!r}")


def _coerce_count(value, field: str, line_number: int, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServeProtocolError(line_number, f"{field} must be an integer, got {value!r}")
    if value < minimum:
        raise ServeProtocolError(line_number, f"{field} must be >= {minimum}, got {value}")
    if value > 2**63 - 1:  # the predictors hold samples as int64
        raise ServeProtocolError(line_number, f"{field} must be <= 2**63 - 1, got {value}")
    return int(value)


def parse_event_line(line: str, line_number: int = 1) -> ServeEvent:
    """Parse one wire line into a :class:`ServeEvent` (validated).

    Raises :class:`ServeProtocolError` with the given 1-based line number on
    any syntax or schema violation.
    """
    text = line.strip()
    if not text:
        raise ServeProtocolError(line_number, "empty event line")
    try:
        payload, end = _scan_once(text, 0)
    except (StopIteration, ValueError, RecursionError):
        end = -1
    if end != len(text):  # refused, or text after the value: json.loads words both
        try:
            json.loads(text)
        except json.JSONDecodeError as error:
            message = error.msg
        except RecursionError:  # "[" * 5000: the decoder recurses once per level
            message = "nested too deeply"
        except ValueError:  # 5000 digits: the interpreter's integer-string limit
            message = "integer too long"
        raise ServeProtocolError(line_number, f"invalid JSON: {message}")
    if type(payload) is not dict:
        raise ServeProtocolError(
            line_number, f"event must be a JSON object, got {type(payload).__name__}"
        )
    return event_from_payload(payload, line_number)


def event_from_payload(payload: dict, line_number: int) -> ServeEvent:
    """Check one scanned JSON object as an event: what :func:`parse_event_line`
    does after its scan, and what ``LineIngest`` does for each object of a
    group of lines scanned at once.  Mutates ``payload``.

    Raises :class:`ServeProtocolError` with the given 1-based line number on
    any schema violation.
    """
    op = payload.pop("op", "observe")
    if type(op) is not str or op not in OPS:  # `in` would hash a list or object
        raise ServeProtocolError(
            line_number, f"unknown op {op!r}; known ops: {', '.join(sorted(OPS))}"
        )
    required, optional, required_set, allowed = OPS[op]
    if not required_set <= payload.keys() <= allowed:
        missing = [key for key in required if key not in payload]
        if missing:
            raise ServeProtocolError(line_number, f"op {op!r} requires {', '.join(missing)}")
        raise ServeProtocolError(
            line_number,
            f"op {op!r} does not take {', '.join(sorted(payload.keys() - allowed))}"
            f" (allowed: {', '.join((*required, *optional)) or '(no keys)'})",
        )

    receiver = sender = nbytes = horizon = directory = None
    if "receiver" in payload:
        receiver = payload["receiver"]
        if not (type(receiver) is str and receiver and receiver.isascii()):
            receiver = _coerce_key(receiver, line_number)
    if "sender" in payload:
        sender = payload["sender"]
        if not (type(sender) is int and 0 <= sender <= 2**63 - 1):
            sender = _coerce_count(sender, "sender", line_number)
    if "nbytes" in payload:
        nbytes = payload["nbytes"]
        if not (type(nbytes) is int and 0 <= nbytes <= 2**63 - 1):
            nbytes = _coerce_count(nbytes, "nbytes", line_number)
    if "horizon" in payload:
        horizon = _coerce_count(payload["horizon"], "horizon", line_number, minimum=1)
        if horizon > MAX_HORIZON:
            raise ServeProtocolError(
                line_number, f"horizon must be <= {MAX_HORIZON}, got {horizon}"
            )
    if "dir" in payload:
        directory = payload["dir"]
        if not isinstance(directory, str) or not directory:
            raise ServeProtocolError(
                line_number, f"dir must be a non-empty string, got {directory!r}"
            )
        if "\0" in directory:  # Path.mkdir raises ValueError, not OSError
            raise ServeProtocolError(line_number, "dir must not contain NUL")
        try:
            directory.encode("utf-8")
        except UnicodeEncodeError:
            raise ServeProtocolError(
                line_number, f"dir must be encodable as UTF-8, got {directory!r}"
            ) from None
    # What the named tuple's own ``__new__``, a Python function, ends in.
    return _new_tuple(ServeEvent, (op, receiver, sender, nbytes, horizon, directory))


#: The one wire encoder (``json.dumps`` would build a new one on every call).
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def encode_event(**fields) -> str:
    """Encode an event as one wire line (keys with ``None`` values dropped)."""
    return _encode({key: value for key, value in fields.items() if value is not None})


def encode_response(response: dict) -> str:
    """Encode a response object as one wire line (deterministic key order)."""
    return _encode(response)


def encode_predict(receiver: str, forecast: tuple[list, list] | None) -> str:
    """The ``predict`` answer for ``receiver`` as one wire line, from
    ``Shard.forecast``'s ``(senders, sizes)`` lists of ints or ``None``
    (``None`` for a stream that is not resident): the bytes
    :func:`encode_response` gives for the answer ``ServeService.handle`` builds."""
    if forecast is None:
        return '{"known":false,"op":"predict","predictions":[],"receiver":%s}' % (
            encode_basestring_ascii(receiver)
        )
    predictions = ",".join(
        [
            '{"nbytes":%s,"sender":%s}'
            % ("null" if nbytes is None else nbytes, "null" if sender is None else sender)
            for sender, nbytes in zip(*forecast)
        ]
    )
    return '{"known":true,"op":"predict","predictions":[%s],"receiver":%s}' % (
        predictions,
        encode_basestring_ascii(receiver),
    )
