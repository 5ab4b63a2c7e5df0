"""Multi-step MPI message stream predictor built on the periodicity detector.

The paper's prediction scheme (Section 4.2): detect the periodicity ``m`` of
the data stream with the DPD, then predict the next several values by
replaying the last period — the value expected ``k`` steps in the future is
the value observed ``m - k`` steps in the past (modulo the period).  Because
a whole period is known, *several* future values can be predicted at once,
which is exactly what distinguishes this predictor from the single-step
heuristics in the related work.

Runtime cost: one :meth:`PeriodicityPredictor.observe` consumes the DPD's
incrementally maintained mismatch counters (O(max_period) vectorised work)
instead of re-running the full equation-(1) scan, and
:meth:`PeriodicityPredictor.observe_many` feeds a run of ``k`` values through
the DPD's batch kernel — O(k * max_period), but with a fixed cost of several
observes per call, so a run shorter than the measured crossover is fed
through :meth:`~PeriodicityPredictor.observe` sample by sample and those in
a stream's first window are only appended — while reproducing the exact
per-sample bookkeeping (``detections``, ``period_changes``, stickiness) of
a sequential loop.

All predictors in this package share the :class:`BasePredictor` interface so
that the evaluation harness and the ablation benchmarks can swap them freely:

* :meth:`BasePredictor.observe` — feed the next observed stream value;
* :meth:`BasePredictor.predict` — return predictions for the next ``horizon``
  values (``None`` entries mean "no prediction"): the per-message path the
  runtime policies and ``repro serve`` query, plain Python ``int`` results
  (for :class:`PeriodicityPredictor` a slice of the ring, no arrays built);
* :meth:`BasePredictor.predict_array` — the same predictions as a
  ``(values, mask)`` NumPy pair: the vectorised path ``evaluate_stream``
  scores whole horizons with.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.circular_buffer import _as_int64_1d
from repro.core.dpd import DynamicPeriodicityDetector

__all__ = ["BasePredictor", "PeriodicityPredictor"]

#: Runs shorter than this go through ``observe`` one sample at a time: the
#: batch kernel costs 30-50 us a call whatever the run (scratch matrices,
#: argmax, the bookkeeping below) against 4-5 us per ``observe``.  Measured on
#: full-history predictors only (a first window is appended before this choice),
#: kernel / loop at run length k, (window, max_period) = (24,256) (6,12) (64,64):
#:   k=2  4.6  4.0  5.4      k=10  1.25  0.92  1.05      k=16  0.93  0.61  0.68
#:   k=4  2.6  2.2  2.3      k=12  1.08  0.80  0.89      k=32  0.66  0.30  0.34
#:   k=8  1.5  1.1  1.5      k=13  1.03  0.82  0.80      k=64  0.45  0.16  0.25
#: The curves cross 1.0 between 9 and 14.  At 12 the serve default (24,256)
#: is within 10% either way, and the small shapes send only runs of 10 and
#: 11 through the loop at a loss, of at most 10%.
_KERNEL_MIN_RUN = 12


class BasePredictor:
    """Common interface of every stream predictor."""

    #: Short name used in benchmark output.
    name: str = "base"

    def observe(self, value: int) -> None:
        """Feed one observed stream value."""
        raise NotImplementedError

    def predict(self, horizon: int = 1) -> list[Optional[int]]:
        """Predict the next ``horizon`` values.

        Entry ``k`` of the returned list is the prediction for the value that
        will be observed ``k+1`` observations from now (the paper's ``+1`` …
        ``+horizon``).  ``None`` means the predictor declines to predict that
        position (for example, no periodicity detected yet).
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Forget all learned state."""
        raise NotImplementedError

    def observe_many(self, values: Sequence[int]) -> None:
        """Feed a sequence of values in order."""
        for value in values:
            self.observe(value)

    def predict_array(self, horizon: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Predictions as a ``(values, mask)`` pair of length-``horizon`` arrays.

        ``mask[k]`` is False where the predictor declines (the matching
        ``values[k]`` entry is meaningless).  The default implementation wraps
        :meth:`predict`; vectorised predictors override it.
        """
        predictions = self.predict(horizon)
        mask = np.array([p is not None for p in predictions], dtype=bool)
        values = np.array(
            [0 if p is None else int(p) for p in predictions], dtype=np.int64
        )
        return values, mask


class PeriodicityPredictor(BasePredictor):
    """The paper's predictor: DPD periodicity detection + period replay.

    Parameters
    ----------
    window_size:
        DPD comparison window ``N``.
    max_period:
        Largest periodicity considered (defaults to ``window_size``).
    mismatch_tolerance:
        Forwarded to the DPD; 0 reproduces the paper's exact-match detector.
    sticky:
        If True (default), the most recently detected period keeps being used
        for prediction even when the current window momentarily loses exact
        periodicity (e.g. one perturbed sample at the physical level).  If
        False, the predictor declines to predict whenever the current window
        is not exactly periodic.
    """

    name = "periodicity"

    def __init__(
        self,
        window_size: int = 64,
        max_period: int | None = None,
        mismatch_tolerance: int = 0,
        sticky: bool = True,
    ) -> None:
        self._dpd = DynamicPeriodicityDetector(
            window_size=window_size,
            max_period=max_period,
            mismatch_tolerance=mismatch_tolerance,
        )
        self.sticky = bool(sticky)
        self._last_period: int | None = None
        self.detections = 0
        self.period_changes = 0

    # ------------------------------------------------------------------
    @property
    def window_size(self) -> int:
        """The DPD comparison window size."""
        return self._dpd.window_size

    @property
    def current_period(self) -> int | None:
        """The period currently used for prediction (after stickiness)."""
        return self._last_period

    @property
    def samples_seen(self) -> int:
        """Number of values observed so far."""
        return self._dpd.samples_seen

    # ------------------------------------------------------------------
    def observe(self, value: int) -> None:
        self._dpd.observe(value)
        period = self._dpd.current_period()
        if period is not None:
            self.detections += 1
            if period != self._last_period:
                self.period_changes += 1
            self._last_period = period
        elif not self.sticky:
            self._last_period = None

    def observe_many(self, values: Sequence[int]) -> None:
        """Vectorised bulk feed; bit-equivalent to looping :meth:`observe`.

        Samples inside the stream's first window are appended to the ring and
        nothing else.  A run of ``k`` past it costs O(k * max_period) in the
        DPD batch kernel (one :meth:`observe` each while the history is still
        filling); the per-sample detection decisions it returns are folded
        into ``detections``, ``period_changes`` and the (sticky) current
        period exactly as a sequential loop would have.  A run shorter than
        ``_KERNEL_MIN_RUN`` *is* that loop — over the list or tuple as it
        came, no array round trip: the kernel's fixed cost per call would
        exceed it.
        """
        if not isinstance(values, (list, tuple)):
            values = _as_int64_1d(values)
        values = values[self._dpd.fill_window(values) :]  # the first window: no period to fold
        if len(values) < _KERNEL_MIN_RUN:
            for value in values:  # observe() int()s each one, list or array
                self.observe(value)
            return
        periods = self._dpd.batch_observe(values, return_periods=True)
        detected = periods > 0
        count = int(np.count_nonzero(detected))
        if count == 0:
            if not self.sticky:
                self._last_period = None
            return
        self.detections += count
        previous = 0 if self._last_period is None else self._last_period
        if self.sticky:
            # Sticky: the reference value for "did the period change" is the
            # previous *detected* period, however long ago.
            sequence = periods[detected]
            changes = int(np.count_nonzero(np.diff(sequence) != 0))
            if int(sequence[0]) != previous:
                changes += 1
            self.period_changes += changes
            self._last_period = int(sequence[-1])
        else:
            # Non-sticky: any non-detecting step resets the period to None
            # (encoded as 0), so a detection after a gap always counts as a
            # change.
            reference = np.empty_like(periods)
            reference[0] = previous
            reference[1:] = np.where(detected[:-1], periods[:-1], 0)
            self.period_changes += int(
                np.count_nonzero(detected & (periods != reference))
            )
            self._last_period = int(periods[-1]) if detected[-1] else None

    def predict_array(self, horizon: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised period replay: ``(values, mask)`` arrays (see base class)."""
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        period = self._last_period
        if period is None or self._dpd.retained < period:
            return (
                np.zeros(horizon, dtype=np.int64),
                np.zeros(horizon, dtype=bool),
            )
        # The value k steps ahead repeats the value at offset (k-1) mod period
        # within the most recent period (a zero-copy view of the ring).
        last_period = self._dpd.history_view(period)
        values = last_period[np.arange(horizon) % period]
        return values, np.ones(horizon, dtype=bool)

    def predict(self, horizon: int = 1) -> list[Optional[int]]:
        """Scalar period replay: the per-message path, plain ``int`` results.

        Same answers as :meth:`predict_array` without building an array per
        query: the last period comes off the ring as one list, and the next
        ``horizon`` values are a slice of it (repeated first, past a period).
        """
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        period = self._last_period
        if period is None or self._dpd.retained < period:
            return [None] * horizon
        replay = self._dpd.history_view(period).tolist()
        if horizon > period:
            replay *= -(-horizon // period)
        return replay[:horizon]

    def periodicity(self):
        """Expose the raw DPD decision (period, distances, samples)."""
        return self._dpd.detect()

    def reset(self) -> None:
        self._dpd.reset()
        self._last_period = None
        self.detections = 0
        self.period_changes = 0
