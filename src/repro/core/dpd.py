"""The Dynamic Periodicity Detector (equation 1 of the paper), incremental.

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
Recomputing every ``d(m)`` from scratch on each sample costs ``O(N * M)``.
This implementation instead keeps one mismatch counter per candidate delay
and exploits that appending sample ``x[T]`` slides the window by one, which
changes each ``d(m)`` by exactly two indicator terms:

.. math::

    d_T(m) = d_{T-1}(m)
             + \\mathbf{1}[x[T] \\ne x[T-m]]          \\quad\\text{(pair entering)}
             - \\mathbf{1}[x[T-N] \\ne x[T-N-m]]      \\quad\\text{(pair leaving)}

Both indicator vectors (over all ``m`` at once) are single NumPy comparisons
against zero-copy views of the ring buffer, so one ``observe`` costs ``O(M)``
vectorised work regardless of the window size.  While the history is still
growing, at most one delay per append becomes newly evaluable and its counter
is initialised with one ``O(N)`` scan — amortised away after the first
``N + M`` samples.

A batch of ``k`` samples is the same update applied ``k`` times at once:
the ``k`` enter and ``k`` leave vectors are two ``(M, k)`` comparisons
against sliding windows of the ring plus the chunk, and a running sum along
the rows yields every intermediate ``d(m)`` — ``O(k * M)`` work, so a batch
of one costs about one ``observe`` and nothing is proportional to ``N + M``.
While the ring is still filling a batch loops over ``observe`` — after the
stream's first ``N`` samples, which evaluate no delay and are only appended.

Complexity (``N`` = window_size, ``M`` = max_period, ``k`` = batch length):

==========================  ==================  =======================
operation                   naive (seed)        incremental (this file)
==========================  ==================  =======================
``observe``                 O(1) append         O(M) counter update
``distances`` / ``detect``  O(N * M) scan       O(M) copy + scan
observe+detect per message  O(N * M)            O(M) amortised
``batch_observe`` of k      k * O(N * M)        O(k * M) on a full ring
==========================  ==================  =======================

The pre-refactor full rescan survives as :meth:`distances_naive` and is used
by the equivalence tests to cross-validate the counters bit-for-bit.

The detector keeps ``N + M`` samples of history in a
:class:`repro.core.circular_buffer.CircularBuffer` (the shifted comparison
needs ``M`` samples before the window); the mirrored ring makes every slice
above a zero-copy view, following the hpc-parallel guide's advice to
vectorise the hot loop rather than iterating in Python.

A tolerance knob allows "almost periodic" windows (useful for the noisy
physical-level streams): a delay is accepted when at most
``mismatch_tolerance`` positions differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.circular_buffer import CircularBuffer, _as_int64_1d

__all__ = ["PeriodicityResult", "DynamicPeriodicityDetector"]

#: A batch is applied on O(M * chunk) scratch matrices; bigger inputs are
#: processed in chunks of this many samples to bound peak memory.
_BATCH_CHUNK = 8192


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
    """Online DPD over an integer-valued stream with O(M) per-sample cost.

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
        if max_period < 1:
            raise ValueError(f"max_period must be at least 1, got {max_period}")
        if mismatch_tolerance < 0:
            raise ValueError(
                f"mismatch_tolerance must be non-negative, got {mismatch_tolerance}"
            )
        self.window_size = int(window_size)
        self.max_period = int(max_period)
        self.mismatch_tolerance = int(mismatch_tolerance)
        self._history = CircularBuffer(self.window_size + self.max_period)
        # Anchored-reversed counter layout: _counters[max_period - m] == d(m)
        # for m = 1 .. _usable (other entries are stale and never read).  With
        # delays descending along the array, the enter/leave indicator vectors
        # are ascending chronological ring views — no [::-1] reversal needed
        # on the per-sample path.
        self._counters = np.zeros(self.max_period, dtype=np.int64)
        self._usable = 0

    # ------------------------------------------------------------------
    @property
    def samples_seen(self) -> int:
        """Total number of samples observed so far."""
        return self._history.total_appended

    @property
    def retained(self) -> int:
        """Number of history samples currently held (at most N + M)."""
        return len(self._history)

    def observe(self, value: int) -> None:
        """Feed one stream sample; updates every ``d(m)`` in O(M).

        This is the per-message runtime path, so it reaches straight into the
        mirrored ring's fields (same package, see
        :class:`~repro.core.circular_buffer.CircularBuffer` for the layout)
        to keep the whole update at three ufunc calls.
        """
        v = int(value)
        buf = self._history
        n = self.window_size
        u = self._usable
        data = buf._data
        cap = buf.capacity
        if u:
            # Enter/leave pairs are read from the pre-append state: the append
            # below may overwrite the oldest sample, which is exactly
            # x[T-N-M] — the partner of the leaving pair at the largest delay.
            end = buf._pos + cap
            counters = self._counters[self.max_period - u :]
            # entering pair for delay m: (x[T], x[T-m])
            counters += v != data[end - u : end]
            # leaving pair for delay m: (x[T-N], x[T-N-m])
            out = end - n
            counters -= data[out] != data[out - u : out]
        pos = buf._pos
        # One strided store hits both mirror slots (pos and pos + cap).
        data[pos::cap] = v
        pos += 1
        buf._pos = 0 if pos == cap else pos
        if buf._count < cap:
            buf._count += 1
        buf.total_appended += 1
        if u < self.max_period and buf.total_appended - n > u:
            # Exactly one delay (m = u + 1) became evaluable: initialise its
            # counter with a full-window scan (O(N), once per delay ever).
            m = u + 1
            end = buf._pos + cap
            self._counters[self.max_period - m] = np.count_nonzero(
                data[end - n : end] != data[end - n - m : end - m]
            )
            self._usable = m

    def fill_window(self, values) -> int:
        """Append the leading ``values`` inside the first window; returns how many.
        No delay is evaluable before sample ``window_size + 1``: nothing else to do."""
        room = self.window_size - self._history.total_appended
        if room <= 0:
            return 0
        head = values[:room]
        self._history.extend(head)
        return len(head)

    def batch_observe(self, values, return_periods: bool = False):
        """Feed many samples at once; bit-identical to an :meth:`observe` loop.

        On a full ring (every call after a stream's first ``N + M`` samples)
        the chunk goes through :meth:`_advance`, which applies all ``k``
        enter/leave updates as one ``(M, k)`` matrix — ``O(k * M)`` work and
        scratch, nothing proportional to ``N + M``.  While the ring is still
        filling, samples past the first window are fed through :meth:`observe`
        one by one, which is the definition the batch must equal anyway.

        Parameters
        ----------
        values:
            Array/sequence/iterable of integer samples.
        return_periods:
            When True, also compute the periodicity decision *after every
            appended sample* (what a sequential ``observe``/``detect`` loop
            would have seen) and return them as an int64 array where entry
            ``j`` is the detected period after ``values[j]`` (0 = none).

        Returns
        -------
        ``None``, or the per-step period array when ``return_periods``.
        """
        arr = _as_int64_1d(values)
        k = int(arr.shape[0])
        periods = np.zeros(k, dtype=np.int64) if return_periods else None
        filling = min(k, self._history.capacity - len(self._history))
        for j in range(self.fill_window(arr), filling):
            self.observe(arr[j])
            if return_periods:
                periods[j] = self.current_period() or 0
        for start in range(filling, k, _BATCH_CHUNK):
            stop = min(start + _BATCH_CHUNK, k)
            distances = self._advance(arr[start:stop])
            if return_periods:
                # Rows run from delay M down to 1, so the smallest accepted
                # delay is the first hit of each column read bottom to top.
                accepted = (distances <= self.mismatch_tolerance)[::-1]
                first = accepted.argmax(axis=0)
                found = accepted[first, np.arange(stop - start)]
                periods[start:stop] = np.where(found, first + 1, 0)
        return periods

    def reset(self) -> None:
        """Forget all history."""
        self._history.clear()
        self._counters[:] = 0
        self._usable = 0

    # ------------------------------------------------------------------
    def distances(self) -> np.ndarray:
        """Return ``d(m)`` for every evaluable delay ``m = 1 .. max_period``.

        Delays for which there is not yet enough history are omitted: with
        ``L`` samples of history, only delays ``m <= L - window_size`` can be
        evaluated (the window always uses the most recent ``window_size``
        samples).  The returned array has one entry per delay starting at
        ``m=1``; it is empty while ``L <= window_size``.

        This is an O(M) copy of the incrementally maintained counters; see
        :meth:`distances_naive` for the from-scratch reference scan.
        """
        u = self._usable
        return self._counters[self.max_period - u :][::-1].copy() if u else np.empty(0, dtype=np.int64)

    def distances_naive(self) -> np.ndarray:
        """Recompute every ``d(m)`` from scratch (pre-refactor O(N*M) scan).

        Kept as the independent reference implementation: the equivalence
        tests assert it stays bit-identical to :meth:`distances` after every
        append.
        """
        history = self._history.to_array()
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

    def _accepted_period(self, ascending: np.ndarray) -> int | None:
        """Smallest delay whose distance passes the tolerance, else None.

        ``ascending`` is a ``d(m)`` array indexed by ``m - 1``; the sole home
        of the acceptance rule shared by :meth:`current_period` and
        :meth:`detect` (:meth:`batch_observe` applies it to a whole matrix).
        """
        if self.mismatch_tolerance == 0:
            index = int(ascending.argmin())
            return index + 1 if ascending[index] == 0 else None
        accepted = ascending <= self.mismatch_tolerance
        index = int(accepted.argmax())
        return index + 1 if accepted[index] else None

    def current_period(self) -> int | None:
        """Smallest accepted delay right now, without materialising a result."""
        u = self._usable
        if not u:
            return None
        return self._accepted_period(self._counters[self.max_period - u :][::-1])

    def detect(self) -> PeriodicityResult:
        """Return the current periodicity decision (smallest accepted delay)."""
        # One ascending copy serves both the snapshot and the period scan.
        distances = self.distances()
        period = self._accepted_period(distances) if distances.size else None
        return PeriodicityResult(
            period=period, distances=distances, samples_seen=self.samples_seen
        )

    def history(self) -> np.ndarray:
        """Chronological copy of the retained history (for prediction replay)."""
        return self._history.to_array()

    def history_view(self, n: int | None = None) -> np.ndarray:
        """Zero-copy view of the last ``n`` retained samples (all when None).

        Valid only until the next ``observe``/``batch_observe``/``reset``.
        """
        if n is None:
            return self._history.view()
        return self._history.view_last(n)

    # ------------------------------------------------------------------
    def _advance(self, chunk: np.ndarray) -> np.ndarray:
        """Append ``chunk`` to a full ring; return ``d(m)`` after every sample.

        With ``A`` the ring followed by the chunk, column ``j`` of
        ``enter``/``leave`` below is exactly the indicator pair
        :meth:`observe` applies for ``chunk[j]`` (row ``i`` is delay
        ``M - i``, the anchored-reversed counter layout), so the running sum
        of their difference on top of the counters is every intermediate
        counter state and its last column is the new one.  The matrix is
        ``(M, k)`` so that the sum runs along contiguous memory.
        """
        n = self.window_size
        max_p = self.max_period
        k = int(chunk.shape[0])
        a = np.concatenate((self._history.view(), chunk))
        runs = np.lib.stride_tricks.sliding_window_view(a, k)  # runs[i] = a[i : i + k]
        enter = a[n + max_p :] != runs[n : n + max_p]
        leave = a[max_p : max_p + k] != runs[:max_p]
        distances = np.subtract(enter, leave, dtype=np.int64)
        distances[:, 0] += self._counters
        np.cumsum(distances, axis=1, out=distances)
        self._counters[:] = distances[:, -1]
        self._history.extend(chunk)
        return distances
