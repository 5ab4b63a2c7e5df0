"""The paper's claims, checked per configuration on every bare test run.

The artefact suites under ``benchmarks/`` regenerate Table 1 and Figures 3-4
into ``benchmarks/results/`` and assert the paper's claims over the whole
table, but they run only when named (``pytest benchmarks``).  This module
reads the same 19 simulations at the artefacts' settings (the session's
``paper_grid``: seed 2003, scale 0.25, the defaults of
``benchmarks/conftest.py``) and checks each claim for each configuration,
so a change that breaks one cell fails by that cell's name.  It also checks that every cell still renders exactly as its committed
Table 1 row and Figure 3/4 bars, without writing to ``benchmarks/results/``.
"""

from __future__ import annotations

import pathlib

import pytest

from cells import PAPER_SCALE
from repro.analysis.figures_accuracy import figure3, figure4
from repro.analysis.figures_streams import figure2
from repro.analysis.table1 import build_table1, render_table1
from repro.workloads.registry import paper_configurations

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "results"

CONFIGURATIONS = {c.label: c for c in paper_configurations(scale=PAPER_SCALE)}
LABELS = list(CONFIGURATIONS)
NON_IS_LABELS = [label for label in LABELS if not label.startswith("is.")]

#: Logical +1 sender accuracy every non-IS cell clears at this scale; the
#: paper's 90% holds at full stream lengths, where the learning phase weighs
#: less (the Figure 3 suite uses the same floor below scale 0.9).
LOGICAL_FLOOR = 70.0


@pytest.fixture(scope="module")
def table1(paper_grid):
    return {row.label: row for row in build_table1(paper_grid)}


@pytest.fixture(scope="module")
def logical(paper_grid):
    return figure3(paper_grid)


@pytest.fixture(scope="module")
def physical(paper_grid):
    return figure4(paper_grid)


def _lines_for(text: str, label: str) -> list[str]:
    """The lines of a rendered artefact whose first field is ``label``."""
    return [line for line in text.splitlines() if line.split()[:1] == [label]]


def _committed(name: str) -> str:
    return (RESULTS_DIR / name).read_text(encoding="utf-8")


def test_labels_cover_the_paper_configurations(table1):
    assert sorted(table1) == sorted(LABELS)
    assert len(LABELS) == 19


@pytest.mark.parametrize("label", LABELS)
def test_table1_row_shape(table1, label):
    """A handful of frequent sizes and senders; CG is point-to-point only,
    IS is collective-dominated and hears from (almost) every peer."""
    row = table1[label]
    assert row.p2p_messages + row.collective_messages > 0
    assert 1 <= row.num_sizes <= 5
    if row.workload == "is":
        assert row.collective_messages > row.p2p_messages
        assert row.num_senders >= row.nprocs - 1 - row.nprocs // 4
    else:
        assert 1 <= row.num_senders <= 8
    if row.workload == "cg":
        assert row.collective_messages == 0


@pytest.mark.parametrize("label", LABELS)
def test_table1_row_matches_committed_artefact(table1, label):
    rendered = _lines_for(render_table1(list(table1.values())), label)
    assert len(rendered) == 1
    assert rendered == _lines_for(_committed("table1.txt"), label)


@pytest.mark.parametrize("label", NON_IS_LABELS)
def test_logical_sender_accuracy_clears_the_floor(logical, label):
    config = logical.config(label)
    assert config.sender_accuracy[0] >= LOGICAL_FLOOR
    assert config.size_accuracy[0] >= LOGICAL_FLOOR
    # Looking further ahead costs little on a periodic stream.
    assert config.sender_accuracy[4] > config.sender_accuracy[0] - 10.0


@pytest.mark.parametrize("label", LABELS)
def test_physical_sender_accuracy_not_above_logical(logical, physical, label):
    """Arrival-order noise can only hurt prediction (Figure 4 vs Figure 3)."""
    assert (
        physical.config(label).sender_accuracy[0]
        <= logical.config(label).sender_accuracy[0] + 5.0
    )


@pytest.mark.parametrize("label", LABELS)
def test_physical_stream_reorders_the_logical_one(paper_grid, label):
    """Both levels see the same messages; only their order differs (Figure 2)."""
    configuration = CONFIGURATIONS[label]
    streams = figure2(
        paper_grid, configuration.workload, configuration.nprocs, p2p_only=False
    )
    assert len(streams.logical_senders) > 0
    assert sorted(streams.logical_senders.tolist()) == sorted(
        streams.physical_senders.tolist()
    )


@pytest.mark.parametrize("label", LABELS)
def test_accuracy_bars_match_committed_artefacts(logical, physical, label):
    for figure, name in ((logical, "figure3.txt"), (physical, "figure4.txt")):
        rendered = _lines_for(figure.render(), label)
        assert len(rendered) == 2 * figure.horizon
        assert rendered == _lines_for(_committed(name), label)
