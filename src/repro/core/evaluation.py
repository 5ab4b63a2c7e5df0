"""Online evaluation of stream-prediction accuracy.

The paper's evaluation (Section 5) replays each receiving process' sender and
message-size streams through the predictor and measures, for every position
in the stream, whether the predictions issued for the next one to five values
("+1" … "+5") turn out to be correct.  :func:`evaluate_stream` reproduces that
protocol:

1. before observing the value at position ``t`` the predictor is asked for
   ``horizon`` predictions (+1 predicts position ``t``, +2 position ``t+1``,
   and so on);
2. the predictions are scored against the actual future values;
3. the value at position ``t`` is then fed to the predictor with
   :meth:`~repro.core.predictor.BasePredictor.observe`.

Positions for which the predictor declines to predict count as misses (this
is what makes the short IS.4 stream score ≈ 80 % in the paper: the first
period of the pattern must be seen before anything can be predicted).

Section 5.3 of the paper argues that for buffer pre-allocation the exact
*order* of the next few messages does not matter, only their multiset;
:func:`evaluate_unordered` measures that relaxed notion of accuracy.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.predictor import BasePredictor

__all__ = [
    "AccuracyResult",
    "UnorderedAccuracyResult",
    "evaluate_stream",
    "evaluate_unordered",
]

PredictorFactory = Callable[[], BasePredictor]


@dataclass(frozen=True)
class AccuracyResult:
    """Per-horizon prediction accuracy for one stream.

    Attributes
    ----------
    hits:
        ``hits[k]`` is the number of correct predictions at horizon ``k+1``.
    attempts:
        ``attempts[k]`` is the number of scored positions at horizon ``k+1``
        (positions near the end of the stream cannot be scored for the longer
        horizons and are excluded).
    predicted:
        ``predicted[k]`` counts positions where the predictor actually issued
        a prediction (was not ``None``); ``attempts - predicted`` positions
        are automatic misses.
    stream_length:
        Number of samples in the evaluated stream.
    """

    hits: np.ndarray
    attempts: np.ndarray
    predicted: np.ndarray
    stream_length: int

    @property
    def horizon(self) -> int:
        """Number of evaluated horizons."""
        return int(self.hits.shape[0])

    def accuracy(self, k: int) -> float:
        """Prediction accuracy (fraction) at horizon ``+k`` (1-based)."""
        if not 1 <= k <= self.horizon:
            raise ValueError(f"horizon must be in [1, {self.horizon}], got {k}")
        attempts = self.attempts[k - 1]
        return float(self.hits[k - 1] / attempts) if attempts else 0.0

    def coverage(self, k: int) -> float:
        """Fraction of positions at horizon ``+k`` where a prediction existed."""
        if not 1 <= k <= self.horizon:
            raise ValueError(f"horizon must be in [1, {self.horizon}], got {k}")
        attempts = self.attempts[k - 1]
        return float(self.predicted[k - 1] / attempts) if attempts else 0.0

    def accuracies(self) -> list[float]:
        """Accuracy for every horizon, ``+1`` first."""
        return [self.accuracy(k) for k in range(1, self.horizon + 1)]

    def as_percentages(self) -> list[float]:
        """Accuracy for every horizon as percentages (paper's y-axis)."""
        return [100.0 * a for a in self.accuracies()]


@dataclass(frozen=True)
class UnorderedAccuracyResult:
    """Order-insensitive accuracy over a sliding window of future values.

    ``mean_overlap`` is the average, over all scored positions, of the
    fraction of the next ``horizon`` actual values that also appear in the
    predicted multiset (Section 5.3's "knowing the next senders and their
    message size may be useful" argument).
    """

    mean_overlap: float
    positions: int
    horizon: int


def evaluate_stream(
    stream: Sequence[int],
    predictor_factory: PredictorFactory,
    horizon: int = 5,
    warmup: int = 0,
) -> AccuracyResult:
    """Replay ``stream`` through a fresh predictor and score each horizon.

    Parameters
    ----------
    stream:
        The integer stream (sender ranks or message sizes).
    predictor_factory:
        Zero-argument callable returning a fresh predictor.
    horizon:
        Number of future values predicted at every position (the paper uses 5).
    warmup:
        Number of initial positions excluded from scoring (but still fed to
        the predictor).  The paper scores the whole stream, so the default is
        0; the ablation benchmarks use non-zero warmups to separate "learning"
        from "steady state" accuracy.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if warmup < 0:
        raise ValueError(f"warmup must be non-negative, got {warmup}")
    values = np.asarray(stream, dtype=np.int64)
    n = int(values.shape[0])
    predictor = predictor_factory()

    # Warmup positions are never scored, so they can be fed through the
    # predictor's bulk path in one call.
    warm = min(warmup, n)
    if warm:
        predictor.observe_many(values[:warm])

    # Position t's prediction k (0-based) is scored against the value at t + k,
    # when the stream reaches that far.
    samples = values.tolist()
    hits = [0] * horizon
    predicted = [0] * horizon
    for t in range(warm, n):
        predictions = predictor.predict(horizon)
        if len(predictions) != horizon:
            raise ValueError(f"predictor returned {len(predictions)} predictions, expected {horizon}")
        for k, (guess, target) in enumerate(zip(predictions, samples[t : t + horizon])):
            if guess is not None:
                predicted[k] += 1
                hits[k] += guess == target
        predictor.observe(samples[t])

    return AccuracyResult(
        hits=np.array(hits, dtype=np.int64),
        attempts=np.array([max(0, n - warm - k) for k in range(horizon)], dtype=np.int64),
        predicted=np.array(predicted, dtype=np.int64),
        stream_length=n,
    )


def evaluate_unordered(
    stream: Sequence[int],
    predictor_factory: PredictorFactory,
    horizon: int = 5,
    warmup: int = 0,
) -> UnorderedAccuracyResult:
    """Score predictions as multisets, ignoring the order of future values."""
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if warmup < 0:
        raise ValueError(f"warmup must be non-negative, got {warmup}")
    values = np.asarray(stream, dtype=np.int64)
    n = int(values.shape[0])
    predictor = predictor_factory()

    total_overlap = 0.0
    positions = 0
    for t in range(n):
        if t >= warmup and t + horizon <= n:
            predictions = [p for p in predictor.predict(horizon) if p is not None]
            actual = Counter(int(v) for v in values[t : t + horizon])
            predicted_counts = Counter(int(p) for p in predictions)
            overlap = sum((actual & predicted_counts).values())
            total_overlap += overlap / horizon
            positions += 1
        predictor.observe(int(values[t]))

    mean = total_overlap / positions if positions else 0.0
    return UnorderedAccuracyResult(mean_overlap=mean, positions=positions, horizon=horizon)
