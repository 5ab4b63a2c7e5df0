"""Shared fixtures for the benchmark harness.

The benchmarks regenerate every table and figure of the paper (one file
each in ``benchmarks/results/``).  Simulating all 19 configurations is the
expensive part, so it happens once per session in the ``paper_context``
fixture; the benchmarked functions then measure the analysis/prediction work
on the cached traces.  Rendered outputs are written to
``benchmarks/results/`` so a benchmark run leaves the regenerated artefacts
behind.

The run scale is controlled with the ``REPRO_BENCH_SCALE`` environment
variable (default 0.25; use 1.0 for class-A-like message volumes — slower but
closest to the paper's stream lengths).
"""

from __future__ import annotations

import os
import pathlib
import sys

import pytest

# Make the src/ layout importable when the package is not installed.
_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(_SRC))

from repro.analysis.experiments import ExperimentContext  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def bench_scale() -> float | None:
    """The run scale used by the benchmark harness (None = registry defaults)."""
    raw = os.environ.get("REPRO_BENCH_SCALE", "0.25")
    if raw.lower() in ("default", "paper", "none", ""):
        return None
    return float(raw)


@pytest.fixture(scope="session")
def paper_context() -> ExperimentContext:
    """Experiment context shared by all benchmarks (simulations memoised)."""
    return ExperimentContext(seed=2003, scale=bench_scale())


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    """Directory where benchmarks drop their rendered tables/figures."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: pathlib.Path, name: str, content: str) -> None:
    """Persist one rendered artefact produced during the benchmark run."""
    (results_dir / name).write_text(content + "\n", encoding="utf-8")
