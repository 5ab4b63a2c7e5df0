"""Predictor state: resident size, and a typed byte encoding for snapshots.

The serving plane keeps one predictor pair per live stream; it bounds their
memory and moves them between processes (snapshot/restore).  Both read the
:class:`~repro.core.predictor.PredictorState` every served predictor keeps:
its registry name, its constructor arguments, then ints, ``None``\\ s and
``array('q')`` vectors.

* :func:`state_nbytes` — the predictor's ``nbytes``: a formula over the
  lengths it keeps, the same in any process and before and after a restore;
* :func:`freeze_state` / :func:`thaw_state` — that state in the encoding
  below, and back through ``from_state``.  A kind is looked up in a closed
  set (:data:`KINDS`) and its fields checked against :data:`FIELDS`; nothing
  in the bytes is imported or called, and any byte string thaws to a working
  predictor or raises :class:`SnapshotError`.

Encoding (little endian)::

    state := kind_len u8 | kind | n_config u8 | n_config × int64 | n_data u8 | field*
    field := 0x00 (None) | 0x01 int64 | 0x02 count u32 + count × int64 | 0x03 state
"""

from __future__ import annotations

import re
import struct
import sys
from array import array

from repro.core.baselines import STREAM_PREDICTORS
from repro.core.predictor import PredictorState
from repro.predictive.online import OnlineMessagePredictor

__all__ = ["KINDS", "SnapshotError", "state_nbytes", "freeze_state", "thaw_state", "thaw_record"]

#: Every kind a frozen state may name.
KINDS = {**STREAM_PREDICTORS, OnlineMessagePredictor.name: OnlineMessagePredictor}

#: The data fields of each kind, one letter a field (n None, i int, a
#: ``array('q')``, s nested state); a state nests at most once.
FIELDS = {
    "online": "is+",
    "periodicity": "iii[ni]a",
    "last-value": "[ni]",
    "most-frequent": "a",
    "cycle": "[ni]a",
    "markov": "aa",
    "stride": "[ni][ni]",
}

_U8, _U32, _I64 = struct.Struct("<B"), struct.Struct("<I"), struct.Struct("<q")
#: The encoding is little endian; an ``array('q')`` holds native-order words.
_BIG_ENDIAN = sys.byteorder == "big"


class SnapshotError(RuntimeError):
    """A snapshot file, or a frozen predictor state, that cannot be read.

    ``path`` is the file (None for a frozen state), ``reason`` the message
    without its location, ``shard`` and ``offset`` where the damage is, when
    known.
    """

    def __init__(self, path, message: str, *, shard: int | None = None, offset: int | None = None):
        location = "frozen predictor state" if path is None else f"snapshot {path}"
        if shard is not None:
            location += f" (shard {shard})"
        suffix = "" if offset is None else f" at offset {offset}"
        super().__init__(f"{location}: {message}{suffix}")
        self.path = None if path is None else str(path)
        self.reason, self.shard, self.offset = message, shard, offset


def state_nbytes(predictor) -> int:
    """Resident size estimate (bytes) of a predictor: its ``nbytes`` formula."""
    return predictor.nbytes


def freeze_state(predictor) -> bytes:
    """The predictor's state in the typed encoding above."""
    out = bytearray()
    _write(out, predictor.get_state())
    return bytes(out)


def _write(out: bytearray, state: PredictorState) -> None:
    kind = state.kind.encode("ascii")
    out += _U8.pack(len(kind)) + kind + _U8.pack(len(state.config))
    out += struct.pack(f"<{len(state.config)}q", *state.config) + _U8.pack(len(state.data))
    for field, value in enumerate(state.data):
        if value is None:
            out.append(0)
        elif isinstance(value, PredictorState):
            out.append(3)
            _write(out, value)
        elif isinstance(value, int):
            out += b"\x01" + _I64.pack(value)
        elif isinstance(value, array) and value.typecode == "q":
            if _BIG_ENDIAN:
                value = array("q", value)
                value.byteswap()
            out += b"\x02" + _U32.pack(len(value)) + value.tobytes()
        else:  # refused, not cast: a cast would truncate floats and wrap uint64
            found = type(value).__name__
            if isinstance(value, array):
                found = f"array({value.typecode!r})"
            raise TypeError(
                f"{state.kind} state field {field} is {found}, not an int or array('q')"
            )


def thaw_state(blob: bytes):
    """The predictor :func:`freeze_state` encoded; :class:`SnapshotError` otherwise."""
    return thaw_record(blob)[1]


def thaw_record(blob: bytes) -> tuple[tuple, object]:
    """The ``configuration`` of the state in ``blob``, and :func:`thaw_state`'s predictor."""
    view = memoryview(blob)
    state, end = _read(view, 0, nested=False)
    if end != len(view):
        raise SnapshotError(None, "bytes after the end of the state", offset=end)
    try:
        return state.configuration, KINDS[state.kind].from_state(state)
    except (ArithmeticError, LookupError, TypeError, ValueError) as error:
        raise SnapshotError(None, f"not a {state.kind} state: {error}") from None


def _take(view: memoryview, offset: int, size: int) -> memoryview:
    if offset + size > len(view):
        raise SnapshotError(None, f"truncated: {size} bytes past the end", offset=offset)
    return view[offset : offset + size]


def _read(view: memoryview, offset: int, nested: bool) -> tuple[PredictorState, int]:
    start = offset
    size = _take(view, offset, 1)[0]
    kind = bytes(_take(view, offset + 1, size)).decode("ascii", "replace")
    if kind not in FIELDS or (nested and kind not in STREAM_PREDICTORS):
        raise SnapshotError(None, f"unknown predictor kind {kind!r}", offset=start)
    offset += 1 + size
    count = _take(view, offset, 1)[0]
    config = struct.unpack(f"<{count}q", _take(view, offset + 1, 8 * count))
    fields = _take(view, offset + 1 + 8 * count, 1)[0]
    offset += 2 + 8 * count
    data, tags = [], ""
    for _ in range(fields):
        tag = _take(view, offset, 1)[0]
        offset += 1
        if tag == 0:
            data.append(None)
        elif tag == 1:
            data.append(_I64.unpack(_take(view, offset, 8))[0])
            offset += 8
        elif tag == 2:
            length = 8 * _U32.unpack(_take(view, offset, 4))[0]
            vector = array("q")
            vector.frombytes(_take(view, offset + 4, length))
            if _BIG_ENDIAN:
                vector.byteswap()
            data.append(vector)
            offset += 4 + length
        elif tag == 3 and not nested:
            state, offset = _read(view, offset, nested=True)
            data.append(state)
        else:
            raise SnapshotError(None, f"bad field tag {tag}", offset=offset - 1)
        tags += "nias"[tag]
    if not re.fullmatch(FIELDS[kind], tags):
        raise SnapshotError(None, f"{kind} state with fields {tags!r}", offset=start)
    return PredictorState(kind, config, tuple(data)), offset
