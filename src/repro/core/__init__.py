"""The paper's contribution: periodicity-based prediction of MPI messages.

* :mod:`repro.core.dpd` — the Dynamic Periodicity Detector, equation (1) of
  the paper, every candidate delay held in one bit lane.
* :mod:`repro.core.predictor` — the multi-step message predictor built on the
  DPD: detect the period of the stream, then replay the last period to
  predict the next several values (+1 … +5 in the paper).
* :mod:`repro.core.baselines` — single-step heuristics used as comparison
  points (last-value, most-frequent, cycle, Markov), in the spirit of the
  related work the paper contrasts itself with.
* :mod:`repro.core.evaluation` — online evaluation of prediction accuracy per
  horizon, plus the order-insensitive (set-based) accuracy of Section 5.3.
"""

from repro.core.baselines import (
    CyclePredictor,
    LastValuePredictor,
    MarkovPredictor,
    MostFrequentPredictor,
    StridePredictor,
)
from repro.core.dpd import DynamicPeriodicityDetector, PeriodicityResult
from repro.core.evaluation import (
    AccuracyResult,
    UnorderedAccuracyResult,
    evaluate_stream,
    evaluate_unordered,
)
from repro.core.predictor import BasePredictor, PeriodicityPredictor

__all__ = [
    "DynamicPeriodicityDetector",
    "PeriodicityResult",
    "BasePredictor",
    "PeriodicityPredictor",
    "LastValuePredictor",
    "MostFrequentPredictor",
    "CyclePredictor",
    "MarkovPredictor",
    "StridePredictor",
    "AccuracyResult",
    "UnorderedAccuracyResult",
    "evaluate_stream",
    "evaluate_unordered",
]
