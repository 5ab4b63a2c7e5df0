"""Baseline stream predictors used as comparison points.

The paper contrasts its periodicity-based predictor with the single-step
heuristics of Afsahi & Dimopoulos ("a number of heuristics for the prediction
of MPI messages ... predict only the next value of a given data stream").
These baselines re-create that family plus two classic reference points:

* :class:`LastValuePredictor` — predict that the next value repeats the last.
* :class:`MostFrequentPredictor` — predict the most frequent value in a
  sliding window (a "better-pair"/frequency heuristic).
* :class:`CyclePredictor` — single-cycle heuristic: predict the value that
  followed the previous occurrence of the current value.
* :class:`MarkovPredictor` — order-``k`` Markov chain on the value sequence,
  predicting the most likely continuation (and rolled forward for multi-step
  predictions).
* :class:`StridePredictor` — classic stride predictor (useful for message
  sizes that grow arithmetically; degenerate to last-value for constant
  streams).

They all implement :class:`repro.core.predictor.BasePredictor`, so the
evaluation harness can compare them directly with the paper's predictor for
the ablation benchmarks, and ``repro serve`` can serve, size and snapshot
them.  Their ``nbytes`` formulas count every value as a heap int (28 B):
values the interpreter shares (-5 … 256) make them read high.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict, deque
from itertools import chain
from typing import Optional

from repro.core.predictor import BasePredictor, PeriodicityPredictor, PredictorState

__all__ = [
    "LastValuePredictor",
    "MostFrequentPredictor",
    "CyclePredictor",
    "MarkovPredictor",
    "StridePredictor",
    "STREAM_PREDICTORS",
]


class LastValuePredictor(BasePredictor):
    """Predict that every future value equals the most recent observation."""

    name = "last-value"
    #: Resident size estimate (bytes): the object and its last value.
    nbytes = 120

    def __init__(self) -> None:
        self._last: Optional[int] = None

    def observe(self, value: int) -> None:
        self._last = int(value)

    def predict(self, horizon: int = 1) -> list[Optional[int]]:
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        return [self._last] * horizon

    def get_state(self) -> PredictorState:
        return PredictorState(self.name, (), (self._last,))

    @classmethod
    def from_state(cls, state: PredictorState) -> "LastValuePredictor":
        predictor = cls(*state.config)
        (predictor._last,) = state.data
        return predictor


class MostFrequentPredictor(BasePredictor):
    """Predict the most frequent value of a sliding window of observations."""

    name = "most-frequent"

    def __init__(self, window_size: int = 64) -> None:
        if window_size <= 0:
            raise ValueError(f"window_size must be positive, got {window_size}")
        self.window_size = int(window_size)
        self._window: deque[int] = deque(maxlen=self.window_size)
        self._counts: Counter[int] = Counter()

    def observe(self, value: int) -> None:
        value = int(value)
        if len(self._window) == self.window_size:
            evicted = self._window[0]
            self._counts[evicted] -= 1
            if self._counts[evicted] == 0:
                del self._counts[evicted]
        self._window.append(value)
        self._counts[value] += 1

    def predict(self, horizon: int = 1) -> list[Optional[int]]:
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if not self._counts:
            return [None] * horizon
        # Ties are broken towards the most recently observed candidate so the
        # behaviour is deterministic.
        best_count = max(self._counts.values())
        candidates = {v for v, c in self._counts.items() if c == best_count}
        choice = None
        for value in reversed(self._window):
            if value in candidates:
                choice = value
                break
        return [choice] * horizon

    def get_state(self) -> PredictorState:
        return PredictorState(self.name, (self.window_size,), (array("q", self._window),))

    @classmethod
    def from_state(cls, state: PredictorState) -> "MostFrequentPredictor":
        predictor = cls(*state.config)
        (window,) = state.data
        if len(window) > predictor.window_size:
            raise ValueError(f"{len(window)} samples in a window of {predictor.window_size}")
        predictor.observe_many(window)
        return predictor

    @property
    def nbytes(self) -> int:
        return 952 + 36 * len(self._window) + 80 * len(self._counts)


class CyclePredictor(BasePredictor):
    """Single-cycle heuristic: replay what followed the last occurrence.

    After observing ``... a b ... a``, the predictor expects ``b`` next.  For
    multi-step predictions it walks its successor table repeatedly, which
    reproduces a cycle exactly once the cycle has been seen in full.
    """

    name = "cycle"

    def __init__(self) -> None:
        self._successor: dict[int, int] = {}
        self._last: Optional[int] = None

    def observe(self, value: int) -> None:
        value = int(value)
        if self._last is not None:
            self._successor[self._last] = value
        self._last = value

    def predict(self, horizon: int = 1) -> list[Optional[int]]:
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        predictions: list[Optional[int]] = []
        current = self._last
        for _ in range(horizon):
            if current is None or current not in self._successor:
                predictions.append(None)
                current = None
                continue
            current = self._successor[current]
            predictions.append(current)
        return predictions

    def get_state(self) -> PredictorState:
        # (value, successor) pairs in the order the values were first followed.
        pairs = array("q", chain.from_iterable(self._successor.items()))
        return PredictorState(self.name, (), (self._last, pairs))

    @classmethod
    def from_state(cls, state: PredictorState) -> "CyclePredictor":
        predictor = cls(*state.config)
        predictor._last, pairs = state.data
        if len(pairs) % 2:
            raise ValueError(f"successor pairs of odd length {len(pairs)}")
        predictor._successor = dict(zip(pairs[::2], pairs[1::2]))
        return predictor

    @property
    def nbytes(self) -> int:
        return 380 + 75 * len(self._successor)


class MarkovPredictor(BasePredictor):
    """Order-``k`` Markov predictor over the value sequence.

    The paper's Section 4.2 argues that Markov models "require more training
    time and ... are not prepared to predict several future values"; this
    implementation rolls the chain forward for multi-step predictions so the
    comparison is as favourable to the baseline as possible.
    """

    name = "markov"

    def __init__(self, order: int = 2) -> None:
        if order <= 0:
            raise ValueError(f"order must be positive, got {order}")
        self.order = int(order)
        self._context: deque[int] = deque(maxlen=self.order)
        self._table: dict[tuple[int, ...], Counter[int]] = defaultdict(Counter)

    def observe(self, value: int) -> None:
        value = int(value)
        if len(self._context) == self.order:
            self._table[tuple(self._context)][value] += 1
        self._context.append(value)

    def _most_likely(self, context: tuple[int, ...]) -> Optional[int]:
        counts = self._table.get(context)
        if not counts:
            return None
        best_count = max(counts.values())
        # Deterministic tie-break: smallest value among the most frequent.
        return min(v for v, c in counts.items() if c == best_count)

    def predict(self, horizon: int = 1) -> list[Optional[int]]:
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if len(self._context) < self.order:
            return [None] * horizon
        context = list(self._context)
        predictions: list[Optional[int]] = []
        for _ in range(horizon):
            nxt = self._most_likely(tuple(context))
            predictions.append(nxt)
            if nxt is None:
                context = context[1:] + [0]
            else:
                context = context[1:] + [nxt]
        return predictions

    def get_state(self) -> PredictorState:
        # One row per transition seen: the context, the value that followed, its count.
        rows = array("q")
        for context, counts in self._table.items():
            for value, count in counts.items():
                rows.extend((*context, value, count))
        return PredictorState(self.name, (self.order,), (array("q", self._context), rows))

    @classmethod
    def from_state(cls, state: PredictorState) -> "MarkovPredictor":
        predictor = cls(*state.config)
        context, table = state.data
        if len(context) > predictor.order or len(table) % (predictor.order + 2):
            raise ValueError(f"context or transition rows do not fit order {predictor.order}")
        predictor._context.extend(context)
        width = predictor.order + 2
        for start in range(0, len(table), width):
            *row, value, count = table[start : start + width]
            predictor._table[tuple(row)][value] = count
        return predictor

    @property
    def nbytes(self) -> int:
        return 936 + 420 * len(self._table)


class StridePredictor(BasePredictor):
    """Predict a constant arithmetic stride between consecutive values."""

    name = "stride"
    #: Resident size estimate (bytes): the object, its last value and its stride.
    nbytes = 144

    def __init__(self) -> None:
        self._last: Optional[int] = None
        self._stride: Optional[int] = None

    def observe(self, value: int) -> None:
        value = int(value)
        if self._last is not None:
            self._stride = value - self._last
        self._last = value

    def predict(self, horizon: int = 1) -> list[Optional[int]]:
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if self._last is None:
            return [None] * horizon
        stride = self._stride or 0
        return [self._last + stride * k for k in range(1, horizon + 1)]

    def get_state(self) -> PredictorState:
        return PredictorState(self.name, (), (self._last, self._stride))

    @classmethod
    def from_state(cls, state: PredictorState) -> "StridePredictor":
        predictor = cls(*state.config)
        predictor._last, predictor._stride = state.data
        return predictor


#: The stream predictors a state may name, by registry name: a closed set, so
#: rebuilding from a state never imports or calls anything by a name it carries.
STREAM_PREDICTORS: dict[str, type[BasePredictor]] = {
    cls.name: cls
    for cls in (
        PeriodicityPredictor,
        LastValuePredictor,
        MostFrequentPredictor,
        CyclePredictor,
        MarkovPredictor,
        StridePredictor,
    )
}
