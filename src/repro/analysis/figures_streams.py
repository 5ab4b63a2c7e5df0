"""Figures 1 and 2: the message streams themselves.

* **Figure 1** shows a portion of the sender and message-size streams received
  by process 3 of bt.9 and the fact that both are periodic (period 18 in the
  paper).  :func:`figure1` extracts the same streams from the simulated trace
  and reports the DPD-detected period.
* **Figure 2** contrasts the logical and physical sender streams of process 3
  of bt.4: the same repeating pattern, with occasional local reorderings at
  the physical level.  :func:`figure2` returns both streams plus the positions
  at which they disagree.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._numpy import np
from repro.analysis.experiments import ExperimentContext
from repro.core.dpd import DynamicPeriodicityDetector
from repro.trace.streams import sender_stream, size_stream
from repro.util.text import wrap_title

__all__ = ["Figure1Result", "Figure2Result", "figure1", "figure2"]


def _detect_period(stream: np.ndarray, window_size: int = 24, max_period: int = 256) -> int | None:
    """Detect the periodicity of a full stream with the DPD (batch path)."""
    detector = DynamicPeriodicityDetector(window_size=window_size, max_period=max_period)
    periods = detector.batch_observe(np.asarray(stream, dtype=np.int64), return_periods=True)
    detected = periods[periods > 0]
    return int(detected[-1]) if detected.size else None


@dataclass(frozen=True)
class Figure1Result:
    """Regenerated Figure 1: periodic streams at one receiving process."""

    label: str
    rank: int
    senders: np.ndarray
    sizes: np.ndarray
    sender_period: int | None
    size_period: int | None
    distinct_senders: tuple[int, ...]
    distinct_sizes: tuple[int, ...]

    def render(self, samples: int = 60) -> str:
        """Plain-text rendering of a portion of both streams."""
        lines = [wrap_title(f"Figure 1 — streams received by process {self.rank} of {self.label}")]
        lines.append(f"sender stream (period {self.sender_period}):")
        lines.append("  " + " ".join(str(int(v)) for v in self.senders[:samples]))
        lines.append(f"size stream (period {self.size_period}):")
        lines.append("  " + " ".join(str(int(v)) for v in self.sizes[:samples]))
        lines.append(f"distinct senders: {list(self.distinct_senders)}")
        lines.append(f"distinct sizes:   {list(self.distinct_sizes)}")
        return "\n".join(lines)


def figure1(
    context: ExperimentContext | None = None,
    workload: str = "bt",
    nprocs: int = 9,
    rank: int | None = None,
    p2p_only: bool = True,
) -> Figure1Result:
    """Regenerate Figure 1 (default: sender/size streams of bt.9, process 3)."""
    context = context or ExperimentContext()
    run = context.run_named(workload, nprocs)
    observed_rank = run.representative_rank if rank is None else rank
    records = run.records("logical", observed_rank)
    kinds = ["p2p"] if p2p_only else None
    senders = sender_stream(records, kinds=kinds)
    sizes = size_stream(records, kinds=kinds)
    return Figure1Result(
        label=run.label,
        rank=observed_rank,
        senders=senders,
        sizes=sizes,
        sender_period=_detect_period(senders),
        size_period=_detect_period(sizes),
        distinct_senders=tuple(sorted(set(int(v) for v in senders))),
        distinct_sizes=tuple(sorted(set(int(v) for v in sizes))),
    )


@dataclass(frozen=True)
class Figure2Result:
    """Regenerated Figure 2: logical vs physical sender stream."""

    label: str
    rank: int
    logical_senders: np.ndarray
    physical_senders: np.ndarray
    mismatch_positions: np.ndarray

    @property
    def mismatch_fraction(self) -> float:
        """Fraction of positions where the two streams disagree."""
        n = min(len(self.logical_senders), len(self.physical_senders))
        return float(len(self.mismatch_positions) / n) if n else 0.0

    def render(self, samples: int = 60) -> str:
        """Plain-text rendering of both streams with mismatches marked."""
        lines = [
            wrap_title(
                f"Figure 2 — logical vs physical sender stream, process {self.rank} of {self.label}"
            )
        ]
        logical = self.logical_senders[:samples]
        physical = self.physical_senders[:samples]
        marks = [
            "^" if i in set(self.mismatch_positions.tolist()) else " "
            for i in range(len(physical))
        ]
        lines.append("logical : " + " ".join(str(int(v)) for v in logical))
        lines.append("physical: " + " ".join(str(int(v)) for v in physical))
        lines.append("          " + " ".join(marks))
        lines.append(
            f"reordered positions: {len(self.mismatch_positions)} / "
            f"{min(len(self.logical_senders), len(self.physical_senders))} "
            f"({100.0 * self.mismatch_fraction:.1f}%)"
        )
        return "\n".join(lines)


def figure2(
    context: ExperimentContext | None = None,
    workload: str = "bt",
    nprocs: int = 4,
    rank: int | None = None,
    p2p_only: bool = True,
) -> Figure2Result:
    """Regenerate Figure 2 (default: bt.4, process 3, both trace levels)."""
    context = context or ExperimentContext()
    run = context.run_named(workload, nprocs)
    observed_rank = run.representative_rank if rank is None else rank
    kinds = ["p2p"] if p2p_only else None
    logical = sender_stream(run.records("logical", observed_rank), kinds=kinds)
    physical = sender_stream(run.records("physical", observed_rank), kinds=kinds)
    n = min(len(logical), len(physical))
    mismatches = np.nonzero(logical[:n] != physical[:n])[0]
    return Figure2Result(
        label=run.label,
        rank=observed_rank,
        logical_senders=logical,
        physical_senders=physical,
        mismatch_positions=mismatches,
    )
