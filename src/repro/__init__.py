"""repro — reproduction of "Exploring the Predictability of MPI Messages".

Freitag, Caubet, Farrera, Cortes, Labarta — IPDPS 2003.

The package is organised bottom-up:

* :mod:`repro.sim` — discrete-event simulation engine and machine/network
  cost models (the stand-in for the paper's IBM RS/6000 + MPICH testbed).
* :mod:`repro.mpi` — an MPI-like library (point-to-point, collectives,
  requests) whose operations rank programs ``yield`` to the engine.
* :mod:`repro.runtime` — eager/rendezvous protocols, matching queues, eager
  buffer pools, credits and runtime statistics.
* :mod:`repro.trace` — the two-level (logical/physical) tracer and stream
  extraction.
* :mod:`repro.workloads` — communication skeletons of NAS BT/CG/LU/IS and
  ASCI Sweep3D plus synthetic workloads.
* :mod:`repro.core` — the paper's contribution: the dynamic periodicity
  detector (DPD), the multi-step message predictor, baseline predictors and
  the accuracy evaluation harness.
* :mod:`repro.predictive` — the Section 2 prediction-driven runtime policies
  (buffer management, credits, rendezvous bypass) and the policy/predictor
  registries.
* :mod:`repro.scenario` — the declarative front door: ``ScenarioSpec`` trees
  (Python / dicts / TOML / string shorthand), the ``Scenario`` run facade,
  and the ``Sweep`` expansion + sharded-execution engine.
* :mod:`repro.analysis` — regeneration of Table 1 and Figures 1-4, the
  extension experiments and the ablations.

Quickstart
----------
>>> from repro import Scenario
>>> result = Scenario({"workload": "bt.9:scale=0.2", "seed": 7}).run()
>>> result.predict("sender").accuracy(1) > 0.9
True

Callers that hold objects rather than names (a ``Workload`` instance, a
policy inspected after the run, a custom tracer) build a
:class:`~repro.sim.engine.Simulator` directly:

>>> from repro import Simulator, create_workload
>>> workload = create_workload("bt", 9, scale=0.2)
>>> result = Simulator(workload.nprocs, seed=7).run([workload.program_for])
"""

# numpy is the package's only hard dependency (typed event queue, vectorised
# cohort engine, columnar traces).  Older releases lack APIs the kernels use;
# fail at import with an actionable message instead of deep inside one.
_NUMPY_MIN = (1, 22)
try:
    import numpy as _numpy
except ImportError as _error:  # pragma: no cover - environment-dependent
    raise ImportError(
        "repro requires numpy >= "
        + ".".join(str(part) for part in _NUMPY_MIN)
        + " (install it with 'pip install numpy')"
    ) from _error
if tuple(int(part) for part in _numpy.__version__.split(".")[:2]) < _NUMPY_MIN:
    raise ImportError(  # pragma: no cover - environment-dependent
        f"repro requires numpy >= {'.'.join(str(p) for p in _NUMPY_MIN)}, "
        f"found {_numpy.__version__}; upgrade with 'pip install -U numpy'"
    )
del _numpy

from repro.core.baselines import (
    CyclePredictor,
    LastValuePredictor,
    MarkovPredictor,
    MostFrequentPredictor,
    StridePredictor,
)
from repro.core.dpd import DynamicPeriodicityDetector
from repro.core.evaluation import evaluate_stream, evaluate_unordered
from repro.core.predictor import PeriodicityPredictor
from repro.scenario import (
    MachineSpec,
    NetworkSpec,
    PolicySpec,
    PredictorSpec,
    Scenario,
    ScenarioResult,
    ScenarioSpec,
    Sweep,
    TraceSpec,
    WorkloadSpec,
    load_sweep,
)
from repro.sim.engine import SimulationResult, Simulator
from repro.sim.machine import MachineConfig
from repro.sim.network import NetworkConfig, NetworkModel
from repro.trace.tracer import TwoLevelTracer
from repro.workloads.registry import create_workload, paper_configurations, workload_names

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # simulation substrate
    "Simulator",
    "SimulationResult",
    "MachineConfig",
    "NetworkConfig",
    "NetworkModel",
    "TwoLevelTracer",
    # workloads
    "create_workload",
    "workload_names",
    "paper_configurations",
    # declarative scenario API
    "Scenario",
    "ScenarioResult",
    "ScenarioSpec",
    "WorkloadSpec",
    "MachineSpec",
    "NetworkSpec",
    "PolicySpec",
    "PredictorSpec",
    "TraceSpec",
    "Sweep",
    "load_sweep",
    # predictor (the paper's contribution)
    "DynamicPeriodicityDetector",
    "PeriodicityPredictor",
    "LastValuePredictor",
    "MostFrequentPredictor",
    "CyclePredictor",
    "MarkovPredictor",
    "StridePredictor",
    "evaluate_stream",
    "evaluate_unordered",
]
