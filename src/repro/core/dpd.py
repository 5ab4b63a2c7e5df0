"""The Dynamic Periodicity Detector (equation 1 of the paper), in bit lanes.

For a window of the last ``N`` stream samples and a candidate delay
``m`` (``0 < m <= M``), the detector computes

.. math::

    d(m) = \\sum_{i=0}^{N-1} \\mathrm{sign}\\bigl(\\lvert x[i] - x[i-m] \\rvert\\bigr)

i.e. the number of positions at which the window differs from itself shifted
by ``m``.  ``d(m) = 0`` means the window repeats exactly with period ``m``.
The smallest such ``m`` is reported as the stream's periodicity.

Incremental update
------------------
The paper stresses that "prediction has to be done at runtime" inside the MPI
library, so the per-message cost of the detector is the budget that matters.
What a sample must decide is only which ``d(m)`` are zero: ``d(m) = 0``
exactly when no sample of the window differs from the sample ``m`` places
before it.  Equation (1) compares the window with itself at all ``M`` delays
at once, which is the word-parallel comparison of bit-parallel string
matching (Baeza-Yates & Gonnet, CACM 1992).  The detector holds every
indicator vector as one ``M``-bit Python int, *lane* ``j`` standing for
delay ``M - j``:

* **Occurrence masks.**  Each distinct value in the retained history maps to
  an int with bit ``p`` set when the value occurred at the ``p``-th retained
  sample.  The *match mask* of sample ``x[t]`` — lane set when
  ``x[t] = x[t-m]``, clear when they differ or ``x[t-m]`` predates the
  stream — is then ``(mask[x[t]] >> (t - M)) & full``: the complement,
  within ``M`` lanes, of the sample's mismatch lanes.  It depends only on
  the samples before ``t``, so it can be recomputed at any later time from
  the same masks; when ``x[t]`` arrives, ``mask[x[t]]`` has no bit from ``t``
  on and the shift alone is the match mask.
* **The window's AND.**  ``d(m) = 0`` exactly when the lane of ``m`` is set
  in the AND of the window's ``N`` match masks — the complement of the OR of
  their mismatch lanes.  Sliding the window by one adds the newest match
  mask and drops the oldest, and an AND cannot be undone, so it is kept as a
  two-stack sliding-window aggregate (Tangwongsan, Hirzel & Schneider,
  "General Incremental Sliding-Window Aggregation", VLDB 2015): the *back*
  is the running AND of the newest match masks (the AND alone; how many it
  covers is ``N`` minus the front's length), the *front* a stack of suffix
  ANDs over the older ones, its top the AND of them all.  A sample ANDs its
  match mask into the back and pops one front entry.  When the front runs
  empty it is rebuilt from the last ``N`` samples, newest to oldest, their
  match masks recomputed from the history and the masks, and the back
  starts over; a suffix AND equal to the one before it is the same int
  object, so a window that stays periodic stores few of them.  One sample
  in ``N`` pays ``N`` match masks: ``observe`` is O(1) lane operations,
  amortized.
* **Queries.**  The smallest accepted delay is the highest set lane of
  ``front[-1] & back``: one ``int.bit_length``, which :meth:`observe`
  returns.  A delay the history cannot evaluate yet (``m > samples_seen -
  N``) reaches before the stream in the window's oldest sample, so its lane
  is clear without a mask of its own.  The counts ``d(m)`` themselves are
  not kept: :meth:`distances` scans the history for them when a
  :meth:`~DynamicPeriodicityDetector.detect` asks.

The history is an ``array('q')`` trimmed to its last ``N + M`` samples when
it reaches ``3 (N + M) / 2``; the masks are shifted down by the same amount
and a value that no longer occurs loses its entry, so the state holds one
mask per distinct value among at most ``3 (N + M) / 2`` samples (a stream
whose values never repeat stays under 64 KiB at ``(24, 256)``).  No delay is evaluable
before sample ``N + 1``, so the stream's first ``N`` samples are only
appended (by :meth:`~DynamicPeriodicityDetector.observe` and
:meth:`~DynamicPeriodicityDetector.fill_window` alike) and folded in one
pass when the sample after them arrives.

Everything else is a function of ``samples_seen`` and the stored samples:
the masks are one pass over them, and the front was last rebuilt a multiple
of ``N`` samples past the first window, so the back covers the last
``(samples_seen - N) mod N`` samples and the front the rest of the window —
which is how :meth:`~DynamicPeriodicityDetector.from_history` rebuilds a
detector, its front and back split as the live one holds them.

Complexity (``N`` = window_size, ``M`` = max_period, ``k`` = batch length,
``w`` = bits per machine word; a big-int operation on ``M`` lanes is
``O(M / w)``):

==========================  ==================  ==========================
operation                   naive (seed)        bit lanes (this file)
==========================  ==================  ==========================
``observe``                 O(1) append         O(1) amortized lane ops, O(M/w) each
``current_period``          O(N * M) scan       O(1) lane ops
``distances`` / ``detect``  O(N * M) scan       O(N * M) scan
``batch_observe`` of k      k * O(N * M)        k * ``observe``
==========================  ==================  ==========================
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["PeriodicityResult", "DynamicPeriodicityDetector"]


def _as_int64_1d(values) -> np.ndarray:
    """Coerce ``values`` (array, sequence, or iterable) to a 1-D int64 array."""
    from repro._numpy import np

    if isinstance(values, np.ndarray):
        return np.ascontiguousarray(values.reshape(-1), dtype=np.int64)
    if isinstance(values, (list, tuple, range)):
        return np.asarray(values, dtype=np.int64).reshape(-1)
    return np.fromiter(values, dtype=np.int64)


def _matches(mask: int, shift: int, full: int) -> int:
    """Match mask of a sample whose value occurs at the bits of ``mask``.

    ``shift`` is the sample's bit minus ``M``: lane ``j`` is set when the
    value also occurred at bit ``shift + j``, i.e. ``M - j`` samples before
    (bits below zero predate the stream, so they never match).
    """
    return (mask >> shift if shift >= 0 else mask << -shift) & full


@dataclass(frozen=True)
class PeriodicityResult:
    """Outcome of one periodicity query.

    Attributes
    ----------
    period:
        Detected periodicity (smallest accepted delay), or ``None`` when no
        delay satisfied the acceptance criterion.
    distances:
        Array of ``d(m)`` values for ``m = 1 .. max_period`` (index ``m-1``).
        Empty when there was not yet enough history to evaluate any delay.
    samples_seen:
        Total number of samples observed when the query was made.
    """

    period: int | None
    distances: np.ndarray
    samples_seen: int

    @property
    def periodic(self) -> bool:
        """Whether a periodicity was detected."""
        return self.period is not None


class DynamicPeriodicityDetector:
    """Online DPD over an integer-valued stream, every delay in one bit lane.

    Parameters
    ----------
    window_size:
        ``N`` in equation (1): how many recent samples form the comparison
        window.
    max_period:
        ``M`` in equation (1): the largest delay evaluated.  Defaults to
        ``window_size``.  The paper constrains ``M <= N``; this implementation
        also allows ``M > N`` (a short comparison window replayed against a
        longer history), which detects long periods — such as a whole
        Sweep3D octant cycle — without paying the noise sensitivity of an
        equally long comparison window.

    A delay ``m`` is accepted only on an exact match, ``d(m) = 0``, as in
    the paper.
    """

    def __init__(self, window_size: int = 64, max_period: int | None = None) -> None:
        if window_size <= 0:
            raise ValueError(f"window_size must be positive, got {window_size}")
        if max_period is None:
            max_period = window_size
        # A lane mask is one bit per delay: bound it before building one.
        if not 1 <= max_period <= 1 << 16:
            raise ValueError(f"max_period must be in [1, 65536], got {max_period}")
        self.window_size = int(window_size)
        self.max_period = int(max_period)
        self._seen = 0
        # The retained samples; _history[p] is bit p of an occurrence mask.
        self._history = array("q")
        self._masks: dict[int, int] = {}
        self._full = (1 << self.max_period) - 1
        # The window's AND as two stacks: suffix ANDs of the older match masks
        # (empty until the first window is folded), how many distinct ints
        # they are, and the AND of the newer ones.
        self._front: list[int] = []
        self._front_ints = 0
        self._back_and = self._full

    @classmethod
    def from_history(cls, window_size, max_period, samples_seen, history):
        """The detector that has seen ``samples_seen`` samples and stores the
        ``array('q')`` ``history`` (:meth:`stored_history`): equal to the one
        that kept them, masks and front/back split included."""
        detector = cls(window_size, max_period)
        keep = detector.window_size + detector.max_period
        trim_at = keep * 3 // 2  # observe cuts the history back to `keep` here
        stored = min(samples_seen, keep + (samples_seen - trim_at) % (trim_at - keep))
        if len(history) != stored:
            raise ValueError(f"{samples_seen} samples seen store {stored}, got {len(history)}")
        detector._history.extend(history)
        detector._seen = samples_seen
        past = samples_seen - detector.window_size
        if past > 0:
            detector._fold(rebuild=True)
            detector._restack(past % detector.window_size)
        return detector

    @property
    def nbytes(self) -> int:
        """Resident size estimate (bytes), within 15% of tracemalloc: 8 bytes a
        sample, a slot a window sample in the front's list, ``M``-bit ints for
        the distinct front entries, the back and the full mask, then a dict
        slot, key and mask per distinct value; ``D`` masks' bit lengths sum to
        at most ``D * L - D * (D - 1) / 2``.
        """
        length = len(self._history)
        if self._seen <= self.window_size:
            return 560 + 8 * length
        distinct = len(self._masks)
        ints = self._front_ints + 2
        lanes = 8 * self.window_size + ints * (24 + 4 * (-(-self.max_period // 30)))
        mask_bits = distinct * (2 * length - distinct + 1) // 2
        return 560 + 8 * length + lanes + 105 * distinct + mask_bits * 2 // 15

    # ------------------------------------------------------------------
    @property
    def samples_seen(self) -> int:
        """Total number of samples observed so far."""
        return self._seen

    @property
    def retained(self) -> int:
        """Number of history samples a query may read (at most N + M)."""
        return min(len(self._history), self.window_size + self.max_period)

    def observe(self, value: int) -> int | None:
        """Feed one stream sample; returns the smallest accepted delay after it
        (:meth:`current_period`), in a few lane ops."""
        v = int(value)
        n = self.window_size
        seen = self._seen
        history = self._history
        if seen <= n:
            if seen < n:  # inside the first window: nothing is evaluable yet
                history.append(v)
                self._seen = seen + 1
                return None
            self._fold()
            self._restack(0)
        big_m = self.max_period
        masks = self._masks
        t = len(history)  # this sample's bit in the occurrence masks
        mask = masks.get(v, 0)
        matched = mask >> (t - big_m) if t >= big_m else mask << (big_m - t)
        history.append(v)
        masks[v] = mask | (1 << t)
        self._seen = seen + 1
        front = self._front
        gone = front.pop()  # the oldest sample leaves the window
        if front:
            top = front[-1]
            if top is not gone:
                self._front_ints -= 1
            self._back_and = back = self._back_and & matched
            window = top & back
        else:
            window = self._restack(0)
        if t + 1 >= (n + big_m) * 3 // 2:
            self._trim(n + big_m)
        # The highest accepted lane is the smallest accepted delay.
        return big_m + 1 - window.bit_length() if window else None

    def _fold(self, rebuild: bool = False) -> None:
        """Build the history's occurrence masks.

        On a rebuild, a history of few distinct values (at most 256, and one
        per 8 samples) is spelled as one code byte a sample, last sample first:
        a value's mask is that string with its own code as ``1`` and every
        other as ``0``, read in base 2 (bit ``p`` is sample ``p``).  The code is
        a byte of the int64 words when that byte alone tells the values apart
        (one slice of the history's bytes), else the value's index.  More
        distinct values take the pass of int ORs, which is then cheaper.
        """
        history = self._history
        masks = dict.fromkeys(history, 0)
        if rebuild and len(masks) <= min(256, len(history) // 8):
            words = array("q", masks).tobytes()  # the distinct values, laid out as the history
            byte = next((b for b in range(8) if len(set(words[b::8])) == len(masks)), None)
            if byte is None:
                index = dict(zip(masks, range(256)))
                codes, symbols = bytes(map(index.__getitem__, reversed(history))), range(256)
            else:
                codes, symbols = history[::-1].tobytes()[byte::8], words[byte::8]
            zeros = b"0" * 256
            for v, code in zip(masks, symbols):
                masks[v] = int(codes.translate(zeros[:code] + b"1" + zeros[code + 1 :]), 2)
        else:
            for t, v in enumerate(history):
                masks[v] |= 1 << t
        self._masks = masks

    def _restack(self, back: int) -> int:
        """Split the window's last ``N`` match masks: the AND of the newest
        ``back`` is the back, suffix ANDs of the others, newest to oldest, fill
        the empty front.  Returns the window's AND."""
        history = self._history
        masks = self._masks
        big_m = self.max_period
        full = self._full
        end = len(history)
        split = end - back
        back_and = full
        for t in range(split, end):
            back_and &= _matches(masks[history[t]], t - big_m, full)
        front = self._front
        suffix, ints = full, 0
        for t in range(split - 1, end - self.window_size - 1, -1):
            narrower = suffix & _matches(masks[history[t]], t - big_m, full)
            if narrower != suffix or not front:  # equal: the same int object again
                suffix = narrower
                ints += 1
            front.append(suffix)
        self._front_ints = ints
        self._back_and = back_and
        return suffix & back_and

    def _trim(self, keep: int) -> None:
        """Drop all but the last ``keep`` samples and rebase the masks on them."""
        drop = len(self._history) - keep
        del self._history[:drop]
        # A fresh dict: one sized to the values left, not to the ones dropped.
        self._masks = {v: kept for v, mask in self._masks.items() if (kept := mask >> drop)}

    def fill_window(self, values) -> int:
        """Append the leading ``values`` inside the first window; returns how many.
        No delay is evaluable before sample ``window_size + 1``: nothing else to do."""
        room = self.window_size - self._seen
        if room <= 0:
            return 0
        head = values[:room]
        self._history.extend(head)
        self._seen += len(head)
        return len(head)

    def batch_observe(self, values, return_periods: bool = False):
        """Feed many samples at once; the same state as an :meth:`observe` loop.

        Parameters
        ----------
        values:
            Array/sequence/iterable of integer samples.
        return_periods:
            When True, also return the periodicity decision *after every
            appended sample* as an int64 array where entry ``j`` is the
            detected period after ``values[j]`` (0 = none).

        Returns
        -------
        ``None``, or the per-step period array when ``return_periods``.
        """
        from repro._numpy import np

        values = _as_int64_1d(values).tolist()
        periods = np.zeros(len(values), dtype=np.int64) if return_periods else None
        observe = self.observe
        for j in range(self.fill_window(values), len(values)):
            period = observe(values[j])
            if return_periods:
                periods[j] = period or 0
        return periods

    # ------------------------------------------------------------------
    def current_period(self) -> int | None:
        """Smallest accepted delay right now, without materialising a result."""
        front = self._front
        if not front:  # the first window is not folded yet: nothing is evaluable
            return None
        accepted = front[-1] & self._back_and
        return self.max_period + 1 - accepted.bit_length() if accepted else None

    def distances(self) -> np.ndarray:
        """Return ``d(m)`` for every evaluable delay ``m = 1 .. max_period``,
        counted from the retained history (an O(N * M) scan: the detector
        keeps only which of them are zero).

        Delays for which there is not yet enough history are omitted: with
        ``L`` samples of history, only delays ``m <= L - window_size`` can be
        evaluated (the window always uses the most recent ``window_size``
        samples).  The returned array has one entry per delay starting at
        ``m=1``; it is empty while ``L <= window_size``.
        """
        from repro._numpy import np

        history = self.history()
        length = history.shape[0]
        usable_delays = min(self.max_period, length - self.window_size)
        if usable_delays < 1:
            return np.empty(0, dtype=np.int64)
        window = history[-self.window_size :]
        # windows[k] = history[k : k + window_size]; the window shifted by m is
        # windows[length - window_size - m].
        windows = np.lib.stride_tricks.sliding_window_view(history, self.window_size)
        base_index = length - self.window_size
        shifted = windows[base_index - usable_delays : base_index][::-1]
        return np.count_nonzero(shifted != window[np.newaxis, :], axis=1).astype(np.int64)

    def detect(self) -> PeriodicityResult:
        """Return the current periodicity decision (smallest accepted delay)."""
        return PeriodicityResult(
            period=self.current_period(),
            distances=self.distances(),
            samples_seen=self.samples_seen,
        )

    def history(self) -> np.ndarray:
        """Chronological copy of the retained history (for prediction replay)."""
        from repro._numpy import np

        return np.array(self.recent(self.retained), dtype=np.int64)

    def stored_history(self) -> array:
        """A copy of every stored sample, what :meth:`from_history` takes (queries
        read the last ``retained``; the rest waits for the next trim)."""
        return array("q", self._history)

    def recent(self, n: int, count: int | None = None) -> array:
        """The last ``n`` retained samples (``n >= 1``), oldest first, as a copy;
        only the first ``count`` of them when ``count`` is given."""
        if count is None:
            return self._history[-n:]
        start = len(self._history) - n
        return self._history[start : start + count]
