"""Sensitivity studies around the paper's design choices.

These ablations probe the knobs the paper fixes implicitly:

* :func:`window_size_sweep` — how the DPD comparison window trades learning
  speed against noise robustness;
* :func:`jitter_sensitivity` — how physical-level accuracy degrades as
  network timing noise grows (the paper's explanation for Figure 4);
* :func:`baseline_comparison` — the paper's predictor against the single-step
  heuristics of the related work;
* :func:`unordered_accuracy_study` — ordered vs multiset accuracy at the
  physical level (the Section 5.3 argument that exact order is not needed for
  buffer pre-allocation).
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.experiments import ExperimentContext
from repro.core.baselines import (
    CyclePredictor,
    LastValuePredictor,
    MarkovPredictor,
    MostFrequentPredictor,
)
from repro.core.evaluation import evaluate_stream, evaluate_unordered
from repro.core.predictor import PeriodicityPredictor
from repro.scenario.scenario import Scenario
from repro.scenario.spec import ScenarioSpec, WorkloadSpec

__all__ = [
    "window_size_sweep",
    "jitter_sensitivity",
    "baseline_comparison",
    "unordered_accuracy_study",
]

_DEFAULT_MAX_PERIOD = 256


def window_size_sweep(
    windows: Sequence[int] = (8, 16, 24, 32, 64, 128),
    workload: str = "bt",
    nprocs: int = 9,
    horizon: int = 5,
    context: ExperimentContext | None = None,
) -> list[dict]:
    """Accuracy of the periodicity predictor as a function of its window size."""
    context = context or ExperimentContext()
    run = context.run_named(workload, nprocs)
    logical = run.stream("sender", "logical")
    physical = run.stream("sender", "physical")
    rows = []
    for window in windows:
        factory = lambda w=window: PeriodicityPredictor(window_size=w, max_period=_DEFAULT_MAX_PERIOD)
        rows.append(
            {
                "window_size": int(window),
                "logical_accuracy": 100.0 * evaluate_stream(logical, factory, horizon).accuracy(1),
                "physical_accuracy": 100.0 * evaluate_stream(physical, factory, horizon).accuracy(1),
            }
        )
    return rows


def jitter_sensitivity(
    jitters: Sequence[float] = (0.0, 0.05, 0.1, 0.25, 0.5, 1.0),
    workload: str = "bt",
    nprocs: int = 9,
    scale: float = 0.25,
    seed: int = 2003,
    horizon: int = 5,
) -> list[dict]:
    """Physical-level accuracy and stream reordering vs network jitter.

    Compute-time noise and link contention are disabled for this sweep so
    that the network jitter is the *only* random source of physical
    reordering being measured: at ``jitter = 0`` only the small deterministic
    skew between eager and rendezvous transfers remains.
    """
    rows = []
    for jitter in jitters:
        run = Scenario(
            ScenarioSpec(
                workload=WorkloadSpec(workload, nprocs, scale=scale, compute_noise=0.0),
                seed=seed,
                network={"seed": seed, "jitter_sigma": float(jitter), "contention": False},
            )
        ).run()
        logical = run.stream("sender", "logical")
        physical = run.stream("sender", "physical")
        n = min(len(logical), len(physical))
        reordered = float((logical[:n] != physical[:n]).mean()) if n else 0.0
        factory = lambda: PeriodicityPredictor(window_size=24, max_period=_DEFAULT_MAX_PERIOD)
        rows.append(
            {
                "jitter_sigma": float(jitter),
                "reordered_fraction": reordered,
                "physical_accuracy": 100.0 * evaluate_stream(physical, factory, horizon).accuracy(1),
                "logical_accuracy": 100.0 * evaluate_stream(logical, factory, horizon).accuracy(1),
            }
        )
    return rows


def baseline_comparison(
    workload: str = "bt",
    nprocs: int = 9,
    horizon: int = 5,
    level: str = "logical",
    context: ExperimentContext | None = None,
) -> list[dict]:
    """The paper's predictor vs the related-work single-step heuristics."""
    context = context or ExperimentContext()
    run = context.run_named(workload, nprocs)
    stream = run.stream("sender", level)
    predictors = {
        "periodicity (paper)": lambda: PeriodicityPredictor(
            window_size=24, max_period=_DEFAULT_MAX_PERIOD
        ),
        "last-value": LastValuePredictor,
        "most-frequent": lambda: MostFrequentPredictor(window_size=24),
        "cycle": CyclePredictor,
        "markov(2)": lambda: MarkovPredictor(order=2),
    }
    rows = []
    for name, factory in predictors.items():
        result = evaluate_stream(stream, factory, horizon)
        rows.append(
            {
                "predictor": name,
                "level": level,
                "accuracy_plus1": 100.0 * result.accuracy(1),
                "accuracy_plus5": 100.0 * result.accuracy(horizon),
            }
        )
    return rows


def unordered_accuracy_study(
    configurations: Sequence[tuple[str, int]] = (("bt", 9), ("is", 8), ("lu", 8)),
    horizon: int = 5,
    context: ExperimentContext | None = None,
) -> list[dict]:
    """Ordered vs multiset (order-insensitive) accuracy at the physical level."""
    context = context or ExperimentContext()
    factory = lambda: PeriodicityPredictor(window_size=24, max_period=_DEFAULT_MAX_PERIOD)
    rows = []
    for workload, nprocs in configurations:
        run = context.run_named(workload, nprocs)
        physical = run.stream("sender", "physical")
        ordered = evaluate_stream(physical, factory, horizon)
        unordered = evaluate_unordered(physical, factory, horizon)
        rows.append(
            {
                "config": run.label,
                "ordered_accuracy": 100.0 * ordered.accuracy(1),
                "ordered_accuracy_plus5": 100.0 * ordered.accuracy(horizon),
                "unordered_overlap": 100.0 * unordered.mean_overlap,
            }
        )
    return rows
