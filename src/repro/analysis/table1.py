"""Table 1 reproduction: characteristics of the benchmark message streams.

The paper's Table 1 reports, for every application and process count, the
number of point-to-point and collective messages received by one process and
the number of (frequently appearing) distinct message sizes and senders.
:func:`build_table1` regenerates those statistics from the simulated traces;
:func:`render_table1` prints them side by side with the paper's values.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.experiments import ExperimentContext
from repro.scenario.scenario import ScenarioResult
from repro.trace.streams import summarize_stream
from repro.util.text import ascii_table

__all__ = ["PAPER_TABLE1", "Table1Row", "build_table1", "render_table1"]


#: The paper's Table 1, keyed by figure label: (p2p msgs, collective msgs,
#: distinct sizes, distinct senders) received by one process.
PAPER_TABLE1: dict[str, tuple[int, int, int, int]] = {
    "bt.4": (2416, 9, 3, 3),
    "bt.9": (3651, 9, 3, 7),
    "bt.16": (4826, 9, 3, 7),
    "bt.25": (6030, 9, 3, 7),
    "cg.4": (1679, 0, 2, 2),
    "cg.8": (2942, 0, 2, 2),
    "cg.16": (2942, 0, 2, 2),
    "cg.32": (4204, 0, 2, 2),
    "lu.4": (31472, 18, 2, 2),
    "lu.8": (31474, 18, 4, 2),
    "lu.16": (31474, 18, 2, 2),
    "lu.32": (47211, 18, 4, 2),
    "is.4": (11, 89, 3, 4),
    "is.8": (11, 177, 3, 8),
    "is.16": (11, 353, 3, 16),
    "is.32": (11, 705, 3, 32),
    "sw.6": (1438, 36, 2, 3),
    "sw.16": (949, 36, 2, 2),
    "sw.32": (949, 36, 2, 2),
}


@dataclass(frozen=True)
class Table1Row:
    """One row of the regenerated Table 1 (one application x process count)."""

    label: str
    workload: str
    nprocs: int
    iterations: int
    observed_rank: int
    p2p_messages: int
    collective_messages: int
    num_sizes: int
    num_senders: int
    paper_p2p: int | None
    paper_collective: int | None
    paper_sizes: int | None
    paper_senders: int | None

    @property
    def total_messages(self) -> int:
        """Total messages received by the observed process."""
        return self.p2p_messages + self.collective_messages


def _row_from_run(run: ScenarioResult, coverage: float) -> Table1Row:
    summary = summarize_stream(run.records("logical"), coverage=coverage)
    paper = PAPER_TABLE1.get(run.label)
    return Table1Row(
        label=run.label,
        workload=run.spec.workload.name,
        nprocs=run.spec.workload.nprocs,
        iterations=run.workload.iterations,
        observed_rank=run.representative_rank,
        p2p_messages=summary.p2p_messages,
        collective_messages=summary.collective_messages,
        num_sizes=summary.num_frequent_sizes,
        num_senders=summary.num_frequent_senders,
        paper_p2p=paper[0] if paper else None,
        paper_collective=paper[1] if paper else None,
        paper_sizes=paper[2] if paper else None,
        paper_senders=paper[3] if paper else None,
    )


def build_table1(
    context: ExperimentContext | None = None, coverage: float = 0.98
) -> list[Table1Row]:
    """Regenerate Table 1 from simulated traces.

    Parameters
    ----------
    context:
        Experiment context (a fresh default-seeded one is created if absent).
    coverage:
        Fraction of the stream the "frequently appearing" sizes/senders must
        cover (Table 1's footnote says it counts frequent values only).
    """
    context = context or ExperimentContext()
    return [_row_from_run(run, coverage) for run in context.run_all()]


def render_table1(rows: list[Table1Row]) -> str:
    """Render the regenerated Table 1 next to the paper's numbers."""
    headers = [
        "config",
        "iters",
        "rank",
        "p2p msgs",
        "paper p2p",
        "coll msgs",
        "paper coll",
        "# sizes",
        "paper",
        "# senders",
        "paper",
    ]
    body = [
        [
            row.label,
            row.iterations,
            row.observed_rank,
            row.p2p_messages,
            row.paper_p2p if row.paper_p2p is not None else "-",
            row.collective_messages,
            row.paper_collective if row.paper_collective is not None else "-",
            row.num_sizes,
            row.paper_sizes if row.paper_sizes is not None else "-",
            row.num_senders,
            row.paper_senders if row.paper_senders is not None else "-",
        ]
        for row in rows
    ]
    return ascii_table(headers, body, title="Table 1 — MPI applications used for this study (measured vs paper)")
