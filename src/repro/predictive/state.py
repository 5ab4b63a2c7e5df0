"""Predictor-state extraction and resident-size accounting.

The serving plane (:mod:`repro.serve`) keeps one predictor pair per live
stream and must (a) bound the total resident memory of its stream tables and
(b) move a stream's state between processes byte-exactly (snapshot/restore,
shard drains).  Both needs are predictor-agnostic — any registry predictor
can be served — so this module provides the two generic primitives:

* :func:`state_nbytes` — a deep resident-size estimate of an arbitrary
  predictor object graph (NumPy buffers counted by ``nbytes``, containers
  and ``__dict__``/``__slots__`` objects walked recursively, shared objects
  counted once);
* :func:`freeze_state` / :func:`thaw_state` — a byte-exact state codec
  (pickle protocol 4) used by the snapshot format of
  :mod:`repro.serve.snapshot`.  Restoring a frozen state reproduces the
  exact object state, so subsequent predictions are bit-identical — the
  serve plane's snapshot round-trip invariant rides on this.

The size estimate never reads clocks or addresses (beyond identity-based
deduplication), but it is not quite a function of the object graph alone:
``sys.getsizeof`` of an instance ``__dict__`` counts the spare slots of the
class's shared key table, which CPython 3.11 shrinks by one for each of the
first ~30 instances a process creates.  A fresh default periodicity
predictor pair therefore walks to 3,801 B as the first pair of a process,
72 B, then 40 B, then 8 B less for each of the next 23, and 2,977 B for
every pair from then on — the early pairs included, once they are walked
again.  At full history a pair on a period-6 stream walks to about 10 KB
(the trimmed history arrays dominate); one whose values never repeat is the
worst case, about 58 KB a predictor at the trim point.
"""

from __future__ import annotations

import pickle
import sys

import numpy as np

__all__ = ["state_nbytes", "freeze_state", "thaw_state", "PICKLE_PROTOCOL"]

#: Pickle protocol used for frozen predictor state (fixed so snapshots
#: written by newer interpreters stay loadable by the documented format).
PICKLE_PROTOCOL = 4

#: Primitive types whose ``sys.getsizeof`` is the whole story.
_ATOMS = (int, float, bool, bytes, str, complex, type(None))


def state_nbytes(obj) -> int:
    """Deep resident-size estimate (bytes) of a predictor object graph.

    Walks containers, ``__dict__`` and ``__slots__`` attributes; NumPy
    arrays contribute their buffer size (``nbytes``) plus the array-object
    overhead (views share their base's buffer, which is counted once via
    the identity memo).  Objects reachable twice are counted once.

    This is an *estimate* — interpreter-internal sharing (small-int cache,
    string interning) is deliberately ignored — but it is stable for a
    fixed object graph once a process has built a few dozen predictors (see
    the module docstring), monotone in history growth, and cheap enough to
    refresh periodically on the serve ingest path.
    """
    seen: set[int] = set()
    return _deep_nbytes(obj, seen)


def _deep_nbytes(obj, seen: set[int]) -> int:
    identity = id(obj)
    if identity in seen:
        return 0
    seen.add(identity)
    if isinstance(obj, np.ndarray):
        total = int(sys.getsizeof(obj))
        base = obj.base
        if base is None:
            # getsizeof already includes the owned buffer for ndarrays,
            # but not always for non-contiguous ones; be explicit instead.
            total = 128 + int(obj.nbytes)
        else:
            total = 128 + _deep_nbytes(base, seen)
        return total
    if isinstance(obj, _ATOMS):
        return int(sys.getsizeof(obj))
    if isinstance(obj, (list, tuple, set, frozenset)):
        return int(sys.getsizeof(obj)) + sum(_deep_nbytes(item, seen) for item in obj)
    if isinstance(obj, dict):
        return int(sys.getsizeof(obj)) + sum(
            _deep_nbytes(key, seen) + _deep_nbytes(value, seen) for key, value in obj.items()
        )
    total = int(sys.getsizeof(obj))
    attributes = getattr(obj, "__dict__", None)
    if attributes is not None:
        total += _deep_nbytes(attributes, seen)
    slots = getattr(type(obj), "__slots__", ())
    if isinstance(slots, str):
        slots = (slots,)
    for name in slots:
        if hasattr(obj, name):
            total += _deep_nbytes(getattr(obj, name), seen)
    return total


def freeze_state(obj) -> bytes:
    """Serialise a predictor state object graph byte-exactly."""
    return pickle.dumps(obj, protocol=PICKLE_PROTOCOL)


def thaw_state(blob: bytes):
    """Inverse of :func:`freeze_state` (exact object state back)."""
    return pickle.loads(blob)
