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

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    [
        "dpd.DynamicPeriodicityDetector",
        "dpd.PeriodicityResult",
        "predictor.BasePredictor",
        "predictor.PeriodicityPredictor",
        "baselines.LastValuePredictor",
        "baselines.MostFrequentPredictor",
        "baselines.CyclePredictor",
        "baselines.MarkovPredictor",
        "baselines.StridePredictor",
        "evaluation.AccuracyResult",
        "evaluation.UnorderedAccuracyResult",
        "evaluation.evaluate_stream",
        "evaluation.evaluate_unordered",
    ],
)
