"""Figures 3 and 4: prediction accuracy of the sender and size streams.

Both figures plot, for every application and process count, the accuracy of
predicting the next five senders (left column) and the next five message
sizes (right column) of the stream received by one process.  Figure 3 uses
the logical-level streams, Figure 4 the physical-level streams.

:func:`figure3` / :func:`figure4` regenerate the underlying numbers with the
paper's predictor; the result object renders as ASCII bar charts comparable
to the paper's plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.analysis.experiments import ExperimentContext
from repro.core.evaluation import evaluate_stream
from repro.core.predictor import BasePredictor, PeriodicityPredictor
from repro.util.text import ascii_bar_chart, wrap_title

__all__ = ["ConfigAccuracy", "AccuracyFigure", "figure3", "figure4"]

#: Default predictor configuration used for the figures: a short comparison
#: window (fast learning, tolerant of stream length) scanning a generous
#: period range (Sweep3D's full octant cycle spans >100 messages).
DEFAULT_WINDOW = 24
DEFAULT_MAX_PERIOD = 256


def default_predictor_factory() -> BasePredictor:
    """The predictor the figures use unless told otherwise."""
    return PeriodicityPredictor(window_size=DEFAULT_WINDOW, max_period=DEFAULT_MAX_PERIOD)


@dataclass(frozen=True)
class ConfigAccuracy:
    """Prediction accuracy for one configuration (one group of bars)."""

    label: str
    rank: int
    stream_length: int
    sender_accuracy: tuple[float, ...]
    size_accuracy: tuple[float, ...]

    def bars(self, stream: str) -> dict[str, float]:
        """Bar-chart data (percentages) for ``stream`` ('sender' or 'size')."""
        values = self.sender_accuracy if stream == "sender" else self.size_accuracy
        return {f"{self.label} +{k}": value for k, value in enumerate(values, start=1)}


@dataclass
class AccuracyFigure:
    """A regenerated Figure 3 or Figure 4."""

    name: str
    level: str
    horizon: int
    configs: list[ConfigAccuracy] = field(default_factory=list)

    def config(self, label: str) -> ConfigAccuracy:
        """Look up one configuration by its label (e.g. ``"bt.9"``)."""
        for config in self.configs:
            if config.label == label:
                return config
        raise KeyError(f"no configuration labelled {label!r} in {self.name}")

    def labels(self) -> list[str]:
        """All configuration labels, in figure order."""
        return [config.label for config in self.configs]

    def mean_accuracy(self, stream: str = "sender", horizon: int = 1) -> float:
        """Mean accuracy across configurations for one stream and horizon."""
        if not self.configs:
            return 0.0
        index = horizon - 1
        values = [
            (config.sender_accuracy if stream == "sender" else config.size_accuracy)[index]
            for config in self.configs
        ]
        return sum(values) / len(values)

    def render(self) -> str:
        """ASCII bar charts, one group per configuration, like the paper's plots."""
        lines = [wrap_title(f"{self.name} — prediction of the {self.level} MPI communication")]
        for stream, title in (("sender", "sender prediction"), ("size", "message size prediction")):
            lines.append("")
            lines.append(title)
            for config in self.configs:
                lines.append(ascii_bar_chart(config.bars(stream), max_value=100.0, width=40))
        return "\n".join(lines)


def _accuracy_figure(
    name: str,
    level: str,
    context: ExperimentContext | None,
    horizon: int,
    predictor_factory: Callable[[], BasePredictor] | None,
    configurations: Sequence | None,
) -> AccuracyFigure:
    context = context or ExperimentContext()
    factory = predictor_factory or default_predictor_factory
    figure = AccuracyFigure(name=name, level=level, horizon=horizon)
    runs = (
        [context.run(configuration) for configuration in configurations]
        if configurations is not None
        else context.run_all()
    )
    for run in runs:
        senders = run.stream("sender", level)
        sizes = run.stream("size", level)
        sender_result = evaluate_stream(senders, factory, horizon=horizon)
        size_result = evaluate_stream(sizes, factory, horizon=horizon)
        figure.configs.append(
            ConfigAccuracy(
                label=run.label,
                rank=run.representative_rank,
                stream_length=len(senders),
                sender_accuracy=tuple(sender_result.as_percentages()),
                size_accuracy=tuple(size_result.as_percentages()),
            )
        )
    return figure


def figure3(
    context: ExperimentContext | None = None,
    horizon: int = 5,
    predictor_factory: Callable[[], BasePredictor] | None = None,
    configurations: Sequence | None = None,
) -> AccuracyFigure:
    """Regenerate Figure 3: prediction of the logical MPI communication."""
    return _accuracy_figure(
        "Figure 3", "logical", context, horizon, predictor_factory, configurations
    )


def figure4(
    context: ExperimentContext | None = None,
    horizon: int = 5,
    predictor_factory: Callable[[], BasePredictor] | None = None,
    configurations: Sequence | None = None,
) -> AccuracyFigure:
    """Regenerate Figure 4: prediction of the physical MPI communication."""
    return _accuracy_figure(
        "Figure 4", "physical", context, horizon, predictor_factory, configurations
    )
