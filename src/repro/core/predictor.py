"""Multi-step MPI message stream predictor built on the periodicity detector.

The paper's prediction scheme (Section 4.2): detect the periodicity ``m`` of
the data stream with the DPD, then predict the next several values by
replaying the last period — the value expected ``k`` steps in the future is
the value observed ``m - k`` steps in the past (modulo the period).  Because
a whole period is known, *several* future values can be predicted at once,
which is exactly what distinguishes this predictor from the single-step
heuristics in the related work.

Runtime cost: one :meth:`PeriodicityPredictor.observe` is one DPD
``observe`` — a few big-int operations over the detector's bit lanes, O(1)
amortized, see :mod:`repro.core.dpd` — which also answers the period, and
:meth:`PeriodicityPredictor.observe_many` is that loop, except that the
samples inside a stream's first window are appended in one call.  Every run
length takes the same path, so the bookkeeping (``detections``,
``period_changes``, stickiness) is the sequential loop's by construction.

All predictors in this package share the :class:`BasePredictor` interface so
that the evaluation harness and the ablation benchmarks can swap them freely:

* :meth:`BasePredictor.observe` — feed the next observed stream value;
* :meth:`BasePredictor.predict` — return predictions for the next ``horizon``
  values (``None`` entries mean "no prediction"): the per-message path the
  runtime policies, ``repro serve`` and ``evaluate_stream`` query, plain
  Python ``int`` results (for :class:`PeriodicityPredictor` a slice of the
  history, no arrays built);
* ``get_state()`` / ``from_state(state)`` — the predictor's whole state as a
  :class:`PredictorState`, and the predictor rebuilt from one: it answers
  and learns exactly as the original (what ``repro serve`` snapshots store;
  ``ValueError`` for a state no such predictor has);
* ``nbytes`` — a resident-size estimate from the lengths the predictor
  keeps (what the serve stream table bounds).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from repro.core.dpd import DynamicPeriodicityDetector, _as_int64_1d

__all__ = ["BasePredictor", "PeriodicityPredictor", "PredictorState"]


class PredictorState(NamedTuple):
    """A predictor's registry name, constructor arguments (ints) and what it
    learned: ints, ``None``\\ s and ``array('q')`` vectors (an online predictor's
    stream predictors as nested states)."""

    kind: str
    config: tuple
    data: tuple

    @property
    def configuration(self) -> tuple:
        """The kind and constructor arguments, nested states' too: what it was built as."""
        nested = tuple(s.configuration for s in self.data if isinstance(s, PredictorState))
        return self.kind, self.config, nested


class BasePredictor:
    """Common interface of every stream predictor."""

    #: Short name used in benchmark output; the registry name.
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

    def observe_many(self, values: Sequence[int]) -> None:
        """Feed a sequence of values in order."""
        for value in values:
            self.observe(value)


class PeriodicityPredictor(BasePredictor):
    """The paper's predictor: DPD periodicity detection + period replay.

    Parameters
    ----------
    window_size:
        DPD comparison window ``N``.
    max_period:
        Largest periodicity considered (defaults to ``window_size``).
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
        sticky: bool = True,
    ) -> None:
        self._dpd = DynamicPeriodicityDetector(window_size=window_size, max_period=max_period)
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
        period = self._dpd.observe(value)
        if period is not None:
            self.detections += 1
            if period != self._last_period:
                self.period_changes += 1
            self._last_period = period
        elif not self.sticky:
            self._last_period = None

    def observe_many(self, values: Sequence[int]) -> None:
        """Bulk feed: the same state as looping :meth:`observe`.

        Samples inside the stream's first window are appended to the history
        in one call and nothing else; the rest is the :meth:`observe` loop,
        over the list or tuple as it came.
        """
        if not isinstance(values, (list, tuple)):
            values = _as_int64_1d(values).tolist()
        observe = self.observe
        for value in values[self._dpd.fill_window(values) :]:
            observe(value)

    def predict(self, horizon: int = 1) -> list[Optional[int]]:
        """Period replay: the value ``k`` steps ahead repeats the value at
        offset ``(k - 1) mod period`` within the most recent period.

        Up to a period ahead the answer is one slice of the history, the
        first ``horizon`` values of the last period; past a period, that
        period as one list, repeated and cut to ``horizon``.
        """
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        period = self._last_period
        if period is None:
            return [None] * horizon
        if horizon <= period:
            return self._dpd.recent(period, horizon).tolist()
        return (self._dpd.recent(period).tolist() * -(-horizon // period))[:horizon]

    def periodicity(self):
        """Expose the raw DPD decision (period, distances, samples)."""
        return self._dpd.detect()

    def get_state(self) -> PredictorState:
        """``(N, M, sticky)``, then ``samples_seen``, ``detections``,
        ``period_changes``, the sticky period and the stored history."""
        dpd = self._dpd
        config = (dpd.window_size, dpd.max_period, int(self.sticky))
        counters = (dpd.samples_seen, self.detections, self.period_changes, self._last_period)
        return PredictorState(self.name, config, (*counters, dpd.stored_history()))

    @classmethod
    def from_state(cls, state: PredictorState) -> "PeriodicityPredictor":
        window_size, max_period, sticky = state.config
        if sticky not in (0, 1):
            raise ValueError(f"sticky must be 0 or 1, got {sticky}")
        predictor = cls(window_size, max_period, sticky)
        seen, predictor.detections, predictor.period_changes, period, history = state.data
        predictor._dpd = DynamicPeriodicityDetector.from_history(window_size, max_period, seen, history)
        if period is not None and not 1 <= period <= min(predictor._dpd.max_period, len(history)):
            raise ValueError(f"period {period} cannot be replayed from {len(history)} samples")
        predictor._last_period = period
        return predictor

    @property
    def nbytes(self) -> int:
        return self._dpd.nbytes
