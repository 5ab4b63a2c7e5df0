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
Appending sample ``x[T]`` slides the window by one, which changes each
``d(m)`` by exactly two indicator terms:

.. math::

    d_T(m) = d_{T-1}(m)
             + \\mathbf{1}[x[T] \\ne x[T-m]]          \\quad\\text{(pair entering)}
             - \\mathbf{1}[x[T-N] \\ne x[T-N-m]]      \\quad\\text{(pair leaving)}

Equation (1) compares the window with itself at all ``M`` delays at once,
which is the word-parallel comparison of bit-parallel string matching
(Baeza-Yates & Gonnet, CACM 1992).  The detector holds every indicator
vector as one ``M``-bit Python int, *lane* ``j`` standing for delay
``M - j``:

* **Occurrence masks.**  Each distinct value in the retained history maps to
  an int with bit ``p`` set when the value occurred at the ``p``-th retained
  sample.  The lane mask of sample ``x[t]`` — lane set when
  ``x[t] != x[t-m]`` or ``x[t-m]`` predates the stream — is then
  ``~(mask[x[t]] >> (t - M)) & full``: three int operations, whatever ``M``.
  The leaving pair's lane mask is the same expression at ``t = T - N``.
* **Bit-sliced counters.**  ``ceil(log2(max(N, tol + 1) + 1))`` bit-planes
  hold the exact ``d(m)`` of every delay at once (plane ``b`` carries bit
  ``b`` of every counter).  Only the lanes that changed are rippled through
  the planes: ``up = enter & ~leave`` as a carry, ``down = leave & ~enter``
  as a borrow, stopping at the first plane where both run out.
* **Queries.**  The smallest accepted delay is the highest set lane of
  "``d(m) <= tol``", masked to the delays the history can evaluate: the
  complement of the OR of the planes for tolerance 0, the borrow of
  ``d(m) - (tol + 1)`` otherwise — then one ``int.bit_length``.

The history is an ``array('q')`` trimmed to its last ``N + M`` samples when
it reaches ``3 (N + M) / 2``; the masks are shifted down by the same amount
and a value that no longer occurs loses its entry, so the state holds one
mask per distinct value among at most ``3 (N + M) / 2`` samples (a stream
whose values never repeat stays under 64 KiB at ``(24, 256)``).  No delay is evaluable
before sample ``N + 1``, so the stream's first ``N`` samples are only
appended (by :meth:`~DynamicPeriodicityDetector.observe` and
:meth:`~DynamicPeriodicityDetector.fill_window` alike) and counted in one
pass when the sample after them arrives.

Everything else is a function of ``samples_seen`` and the stored samples:
the masks are one pass over them and the planes the lane masks of the last
``N``, the fold that counts the first window — which is how
:meth:`~DynamicPeriodicityDetector.from_history` rebuilds a detector.

Complexity (``N`` = window_size, ``M`` = max_period, ``k`` = batch length,
``w`` = bits per machine word; a big-int operation on ``M`` lanes is
``O(M / w)``):

==========================  ==================  ==========================
operation                   naive (seed)        bit lanes (this file)
==========================  ==================  ==========================
``observe``                 O(1) append         O(log N) lane ops, O(M/w) each
``current_period``          O(N * M) scan       O(log N) lane ops
``distances`` / ``detect``  O(N * M) scan       O(M log N) plane read
``batch_observe`` of k      k * O(N * M)        k * ``observe``
==========================  ==================  ==========================

The full rescan survives as :meth:`~DynamicPeriodicityDetector.distances_naive`
and is used by the equivalence tests to cross-validate the planes after
every append.

A tolerance knob allows "almost periodic" windows (useful for the noisy
physical-level streams): a delay is accepted when at most
``mismatch_tolerance`` positions differ.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import repeat
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


def _lanes(mask: int, shift: int, full: int) -> int:
    """Lane mask of a sample whose value occurs at the bits of ``mask``.

    ``shift`` is the sample's bit minus ``M``: lane ``j`` is set unless the
    value also occurred at bit ``shift + j``, i.e. ``M - j`` samples before
    (bits below zero predate the stream, so they never match).
    """
    return ~(mask >> shift if shift >= 0 else mask << -shift) & full


def _ripple(planes: list[int], up: int, down: int) -> None:
    """Add 1 to the counters of the ``up`` lanes and take 1 from the ``down`` lanes."""
    b = 0
    while up:  # carry
        plane = planes[b]
        planes[b] = plane ^ up
        up &= plane
        b += 1
    b = 0
    while down:  # borrow
        plane = planes[b]
        planes[b] = plane ^ down
        down &= ~plane
        b += 1


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
    mismatch_tolerance:
        A delay ``m`` is accepted when ``d(m) <= mismatch_tolerance``.  The
        paper uses an exact match (tolerance 0), which is the default.
    """

    def __init__(
        self,
        window_size: int = 64,
        max_period: int | None = None,
        mismatch_tolerance: int = 0,
    ) -> None:
        if window_size <= 0:
            raise ValueError(f"window_size must be positive, got {window_size}")
        if max_period is None:
            max_period = window_size
        # A lane mask is one bit per delay: bound it before building one.
        if not 1 <= max_period <= 1 << 16:
            raise ValueError(f"max_period must be in [1, 65536], got {max_period}")
        if mismatch_tolerance < 0:
            raise ValueError(
                f"mismatch_tolerance must be non-negative, got {mismatch_tolerance}"
            )
        self.window_size = int(window_size)
        self.max_period = int(max_period)
        self.mismatch_tolerance = int(mismatch_tolerance)
        self._seen = 0
        # The retained samples; _history[p] is bit p of an occurrence mask.
        self._history = array("q")
        self._masks: dict[int, int] = {}
        self._full = (1 << self.max_period) - 1
        # Lanes of the delays the history can evaluate (m <= samples_seen - N).
        self._usable = 0
        self._planes = [0] * max(self.window_size, self.mismatch_tolerance + 1).bit_length()

    @classmethod
    def from_history(cls, window_size, max_period, mismatch_tolerance, samples_seen, history):
        """The detector that has seen ``samples_seen`` samples and stores the
        int64 array ``history`` (:meth:`stored_history`): equal to the one
        that kept them, masks, planes and usable lanes included."""
        detector = cls(window_size, max_period, mismatch_tolerance)
        keep = detector.window_size + detector.max_period
        trim_at = keep * 3 // 2  # observe cuts the history back to `keep` here
        stored = min(samples_seen, keep + (samples_seen - trim_at) % (trim_at - keep))
        if len(history) != stored:
            raise ValueError(f"{samples_seen} samples seen store {stored}, got {len(history)}")
        detector._history.frombytes(history.tobytes())
        detector._seen = samples_seen
        if samples_seen > detector.window_size:
            detector._fold(history)
            full = detector._full
            detector._usable = full ^ (full >> (samples_seen - detector.window_size))
        return detector

    @property
    def nbytes(self) -> int:
        """Resident size estimate (bytes), within 15% of tracemalloc: 8 bytes a
        sample, then ``M``-bit planes and a dict slot, key and mask per distinct
        value; ``D`` masks' bit lengths sum to at most ``D * L - D * (D - 1) / 2``.
        """
        length = len(self._history)
        if self._seen <= self.window_size:
            return 560 + 8 * length
        distinct = len(self._masks)
        lanes = (len(self._planes) + 1) * (24 + 4 * (-(-self.max_period // 30)))
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

    def observe(self, value: int) -> None:
        """Feed one stream sample; updates every ``d(m)`` in a few lane ops."""
        v = int(value)
        n = self.window_size
        seen = self._seen
        history = self._history
        if seen <= n:
            if seen < n:  # inside the first window: nothing is evaluable yet
                history.append(v)
                self._seen = seen + 1
                return
            self._fold()
        big_m = self.max_period
        full = self._full
        masks = self._masks
        t = len(history)  # this sample's bit in the occurrence masks
        mask = masks.get(v, 0)
        enter = _lanes(mask, t - big_m, full)
        leave = _lanes(masks[history[t - n]], t - n - big_m, full)
        history.append(v)
        masks[v] = mask | (1 << t)
        _ripple(self._planes, enter & ~leave, leave & ~enter)
        self._seen = seen = seen + 1
        if seen - n <= big_m:
            self._usable = full ^ (full >> (seen - n))
        if t + 1 >= (n + big_m) * 3 // 2:
            self._trim(n + big_m)

    def _fold(self, samples: np.ndarray | None = None) -> None:
        """Build the history's masks, then count the window: its last ``N`` lane masks
        (a mask's bits from a sample's own position on fall above lane ``M - 1``).

        ``samples``, the history as an array, is given on a rebuild: few
        distinct values then take one packed comparison, not a pass of int ORs.
        """
        history = self._history
        masks = dict.fromkeys(history, 0)
        if samples is not None and len(masks) <= 64:
            from repro._numpy import np

            # One comparison row per value, packed little-endian: bit p is sample p.
            values = np.fromiter(masks, dtype=np.int64, count=len(masks))
            rows = np.packbits(samples == values[:, None], axis=1, bitorder="little")
            masks = dict(zip(masks, map(int.from_bytes, rows, repeat("little"))))
        else:
            for t, v in enumerate(history):
                masks[v] |= 1 << t
        self._masks = masks
        big_m = self.max_period
        full = self._full
        planes = self._planes
        for t in range(len(history) - self.window_size, len(history)):
            _ripple(planes, _lanes(masks[history[t]], t - big_m, full), 0)

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
        for j in range(self.fill_window(values), len(values)):
            self.observe(values[j])
            if return_periods:
                periods[j] = self.current_period() or 0
        return periods

    # ------------------------------------------------------------------
    def _accepted(self) -> int:
        """Lanes of the evaluable delays whose ``d(m) <= mismatch_tolerance``."""
        if self.mismatch_tolerance == 0:
            mismatched = 0
            for plane in self._planes:
                mismatched |= plane
            return self._usable & ~mismatched
        # The borrow out of d(m) - (tol + 1), plane by plane: set where d(m) <= tol.
        limit = self.mismatch_tolerance + 1
        below = 0
        for b, plane in enumerate(self._planes):
            below = (~plane | below) if limit >> b & 1 else (~plane & below)
        return self._usable & below

    def current_period(self) -> int | None:
        """Smallest accepted delay right now, without materialising a result."""
        accepted = self._accepted()
        # The highest accepted lane is the smallest accepted delay.
        return self.max_period + 1 - accepted.bit_length() if accepted else None

    def distances(self) -> np.ndarray:
        """Return ``d(m)`` for every evaluable delay ``m = 1 .. max_period``.

        Delays for which there is not yet enough history are omitted: with
        ``L`` samples of history, only delays ``m <= L - window_size`` can be
        evaluated (the window always uses the most recent ``window_size``
        samples).  The returned array has one entry per delay starting at
        ``m=1``; it is empty while ``L <= window_size``.

        This reads the counters off the bit-planes; see
        :meth:`distances_naive` for the from-scratch reference scan.
        """
        from repro._numpy import np

        big_m = self.max_period
        usable = min(big_m, self._seen - self.window_size)
        if usable <= 0:
            return np.empty(0, dtype=np.int64)
        counts = np.zeros(big_m, dtype=np.int64)
        for b, plane in enumerate(self._planes):
            lanes = np.frombuffer(plane.to_bytes((big_m + 7) // 8, "little"), dtype=np.uint8)
            counts += np.unpackbits(lanes, count=big_m, bitorder="little").astype(np.int64) << b
        return counts[big_m - usable :][::-1].copy()

    def distances_naive(self) -> np.ndarray:
        """Recompute every ``d(m)`` from scratch (the seed's O(N*M) scan).

        Kept as the independent reference implementation: the equivalence
        tests assert it stays bit-identical to :meth:`distances` after every
        append.
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

    def stored_history(self) -> np.ndarray:
        """A copy of every stored sample, what :meth:`from_history` takes (queries
        read the last ``retained``; the rest waits for the next trim)."""
        from repro._numpy import np

        return np.array(self._history, dtype=np.int64)

    def recent(self, n: int) -> array:
        """The last ``n`` retained samples (``n >= 1``), oldest first, as a copy."""
        return self._history[-n:]
