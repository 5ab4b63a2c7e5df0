"""Shared fixtures for the test suite.

Expensive simulations (full workload runs) are session-scoped so that many
tests can assert different properties of the same traces without re-running
the simulator.  The paper's 19-cell grid is one of them: every module that
reads paper cells reads :func:`paper_grid`.
"""

from __future__ import annotations

import pytest

from cells import PAPER_SCALE, PAPER_SEED
from repro.analysis.experiments import ExperimentContext
from repro.sim.engine import Simulator
from repro.sim.network import NetworkConfig
from repro.workloads.registry import create_workload


@pytest.fixture(scope="session")
def paper_grid():
    """The 19 Table 1 cells at the artefact settings, simulated once a session.

    Seed 2003 and scale 0.25 are the defaults of ``benchmarks/conftest.py``,
    so the grid renders exactly as the committed ``benchmarks/results/``.
    Tests read it and add nothing to its cache.
    """
    context = ExperimentContext(seed=PAPER_SEED, scale=PAPER_SCALE)
    context.run_all(jobs=2)
    return context


@pytest.fixture(scope="session")
def bt9_run():
    """A small (but multi-iteration) BT run on 9 processes, with its workload."""
    workload = create_workload("bt", nprocs=9, scale=0.1)
    result = Simulator(workload.nprocs, seed=42).run([workload.program_for])
    return workload, result


@pytest.fixture(scope="session")
def bt4_run():
    """A small BT run on 4 processes."""
    workload = create_workload("bt", nprocs=4, scale=0.1)
    result = Simulator(workload.nprocs, seed=42).run([workload.program_for])
    return workload, result


@pytest.fixture(scope="session")
def lu4_run():
    """A small LU run on 4 processes."""
    workload = create_workload("lu", nprocs=4, scale=0.02)
    result = Simulator(workload.nprocs, seed=42).run([workload.program_for])
    return workload, result


@pytest.fixture(scope="session")
def is8_run():
    """A full-scale IS run on 8 processes (IS is tiny)."""
    workload = create_workload("is", nprocs=8, scale=1.0)
    result = Simulator(workload.nprocs, seed=42).run([workload.program_for])
    return workload, result


@pytest.fixture(scope="session")
def sweep3d6_run():
    """A small Sweep3D run on 6 processes."""
    workload = create_workload("sweep3d", nprocs=6, scale=0.25)
    result = Simulator(workload.nprocs, seed=42).run([workload.program_for])
    return workload, result


@pytest.fixture(scope="session")
def cg8_run():
    """A small CG run on 8 processes."""
    workload = create_workload("cg", nprocs=8, scale=0.1)
    result = Simulator(workload.nprocs, seed=42).run([workload.program_for])
    return workload, result


@pytest.fixture(scope="session")
def noiseless_bt4_run():
    """BT on 4 processes over a perfectly deterministic network."""
    workload = create_workload("bt", nprocs=4, scale=0.1, compute_noise=0.0)
    result = Simulator(
        workload.nprocs, seed=42, network=NetworkConfig.noiseless(seed=42)
    ).run([workload.program_for])
    return workload, result
