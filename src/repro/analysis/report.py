"""Programmatic builder for the full reproduction report.

This module produces, as plain text, the complete measured-vs-paper report:
Table 1, Figures 1-4, the Section 2 extension experiments and the ablations.
It is the engine behind ``examples/reproduce_paper.py`` and the ``repro
report`` CLI command.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.analysis.ablations import (
    baseline_comparison,
    jitter_sensitivity,
    unordered_accuracy_study,
    window_size_sweep,
)
from repro.analysis.experiments import ExperimentContext
from repro.analysis.extensions import (
    credit_flow_experiment,
    memory_reduction_experiment,
    rendezvous_bypass_experiment,
)
from repro.analysis.figures_accuracy import AccuracyFigure, figure3, figure4
from repro.analysis.figures_streams import figure1, figure2
from repro.analysis.table1 import build_table1, render_table1
from repro.util.text import ascii_table

__all__ = ["ReportSection", "ReproductionReport", "build_report"]


@dataclass
class ReportSection:
    """One titled block of the reproduction report."""

    title: str
    body: str

    def render(self) -> str:
        """The section as Markdown-ish text (title + preformatted body)."""
        return f"## {self.title}\n\n{self.body}"


@dataclass
class ReproductionReport:
    """The assembled report: ordered sections plus generation metadata."""

    sections: list[ReportSection] = field(default_factory=list)
    seed: int = 0
    scale: float | None = None
    elapsed_seconds: float = 0.0

    def add(self, title: str, body: str) -> None:
        """Append a section."""
        self.sections.append(ReportSection(title=title, body=body))

    def section(self, title: str) -> ReportSection:
        """Look up a section by title."""
        for section in self.sections:
            if section.title == title:
                return section
        raise KeyError(f"no section titled {title!r}")

    def render(self) -> str:
        """Render the whole report."""
        footer = (
            f"Generated in {self.elapsed_seconds:.0f}s "
            f"(seed={self.seed}, scale="
            f"{'registry defaults' if self.scale is None else self.scale})."
        )
        return "\n\n".join([section.render() for section in self.sections] + [footer])


def accuracy_figure_table(figure: AccuracyFigure, note: str = "") -> str:
    """Render an accuracy figure (Figure 3 or 4) as a compact table."""
    headers = ["config", "streamlen", "sender +1", "sender +5", "size +1", "size +5"]
    rows = [
        [
            config.label,
            config.stream_length,
            config.sender_accuracy[0],
            config.sender_accuracy[4],
            config.size_accuracy[0],
            config.size_accuracy[4],
        ]
        for config in figure.configs
    ]
    title = f"{figure.name} ({figure.level} level)"
    if note:
        title = f"{title} — {note}"
    return ascii_table(headers, rows, title=title)


def dict_rows_table(title: str, rows: list[dict]) -> str:
    """Render a list of homogeneous dicts as a table (floats get 3 digits)."""
    if not rows:
        return f"{title}\n(no data)"
    headers = list(rows[0].keys())

    def fmt(value):
        if isinstance(value, float):
            return f"{value:.4g}"
        return value

    body = [[fmt(row[h]) for h in headers] for row in rows]
    return ascii_table(headers, body, title=title)


def build_report(
    seed: int = 2003,
    scale: float | None = None,
    context: ExperimentContext | None = None,
    include_extensions: bool = True,
    include_ablations: bool = True,
    jobs: int | None = None,
) -> ReproductionReport:
    """Run every experiment and assemble the reproduction report.

    Parameters
    ----------
    seed:
        Experiment seed (simulations, network jitter, compute noise).
    scale:
        Run-scale override; ``None`` uses the registry defaults (class-A-like
        volumes, LU reduced — see ``repro.workloads.registry.DEFAULT_SCALES``).
    context:
        Pre-built experiment context (its seed/scale win over the arguments).
    include_extensions / include_ablations:
        Allow skipping the non-paper sections for a faster, figures-only run.
    jobs:
        With ``jobs > 1``, the 19 configuration cells are simulated up front
        over that many worker processes (:meth:`ExperimentContext.run_all`);
        every section then reads the pre-warmed cache.  Results are
        bit-identical to a sequential run.
    """
    started = time.time()
    context = context or ExperimentContext(seed=seed, scale=scale)
    if jobs is not None and jobs > 1:
        context.run_all(jobs=jobs)
    report = ReproductionReport(seed=context.seed, scale=context.scale)

    report.add("Table 1", render_table1(build_table1(context)))
    report.add("Figure 1", figure1(context).render())
    report.add("Figure 2", figure2(context).render())
    report.add(
        "Figure 3",
        accuracy_figure_table(figure3(context), "paper: >90% everywhere, is.4 ~80%"),
    )
    report.add(
        "Figure 4",
        accuracy_figure_table(figure4(context), "paper: lower than Figure 3, IS hardest"),
    )

    if include_extensions:
        report.add(
            "Extension: memory reduction (Section 2.1)",
            dict_rows_table("Predicted-sender buffers vs all-peers pre-allocation",
                            [memory_reduction_experiment(seed=context.seed)]),
        )
        report.add(
            "Extension: credit flow control (Section 2.2)",
            dict_rows_table("Prediction-granted credits vs unsolicited eager fan-in",
                            [credit_flow_experiment(seed=context.seed)]),
        )
        report.add(
            "Extension: rendezvous bypass (Section 2.3)",
            dict_rows_table(
                "Predicted long messages on the eager fast path",
                [
                    rendezvous_bypass_experiment(
                        workload_name="ring-exchange", nprocs=8, scale=1.0, seed=context.seed
                    )
                ],
            ),
        )

    if include_ablations:
        report.add(
            "Ablation: DPD window size",
            dict_rows_table("bt.9 sender stream", window_size_sweep(context=context)),
        )
        report.add(
            "Ablation: network jitter",
            dict_rows_table("bt.9, jitter as the only noise source",
                            jitter_sensitivity(seed=context.seed)),
        )
        report.add(
            "Ablation: predictor vs single-step baselines",
            dict_rows_table("bt.9, logical level", baseline_comparison(context=context)),
        )
        report.add(
            "Ablation: ordered vs multiset accuracy",
            dict_rows_table("physical level", unordered_accuracy_study(context=context)),
        )

    report.elapsed_seconds = time.time() - started
    return report
