"""Reproduction harness for the paper's table and figures.

Every table/figure of the paper's evaluation has a function here that
regenerates it as data plus a plain-text rendering:

* :func:`repro.analysis.table1.build_table1` — Table 1 (benchmark
  characteristics).
* :func:`repro.analysis.figures_streams.figure1` — Figure 1 (periodic sender
  and size streams of bt.9, process 3).
* :func:`repro.analysis.figures_streams.figure2` — Figure 2 (logical vs
  physical sender stream of bt.4, process 3).
* :func:`repro.analysis.figures_accuracy.figure3` — Figure 3 (logical-level
  prediction accuracy, +1 … +5).
* :func:`repro.analysis.figures_accuracy.figure4` — Figure 4 (physical-level
  prediction accuracy).
* :mod:`repro.analysis.extensions` — the Section 2 what-if experiments
  (memory reduction, credit flow control, rendezvous bypass).
* :mod:`repro.analysis.ablations` — sensitivity studies (DPD window, network
  jitter, predictor vs baselines, ordered vs unordered accuracy).

Simulations are memoised per configuration in an :class:`ExperimentContext`
so that regenerating the whole evaluation runs each application/process-count
combination exactly once.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    [
        "report.ReproductionReport",
        "report.build_report",
        "scaling.project_buffer_memory",
        "scaling.project_unexpected_exposure",
        "scaling.working_set_from_run",
        "experiments.ExperimentContext",
        "table1.Table1Row",
        "table1.build_table1",
        "table1.render_table1",
        "figures_streams.Figure1Result",
        "figures_streams.Figure2Result",
        "figures_streams.figure1",
        "figures_streams.figure2",
        "figures_accuracy.AccuracyFigure",
        "figures_accuracy.figure3",
        "figures_accuracy.figure4",
        "extensions.memory_reduction_experiment",
        "extensions.credit_flow_experiment",
        "extensions.rendezvous_bypass_experiment",
        "ablations.window_size_sweep",
        "ablations.jitter_sensitivity",
        "ablations.baseline_comparison",
        "ablations.unordered_accuracy_study",
    ],
)
