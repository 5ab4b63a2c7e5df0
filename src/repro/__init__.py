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

Every package's front door is lazy (:mod:`repro._lazy`): ``import repro``
loads no subpackage and no numpy, and a name loads its module the first time
it is read, so a process pays only for what it uses.

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

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    [
        "__version__",
        # simulation substrate
        "sim.engine.Simulator",
        "sim.engine.SimulationResult",
        "sim.machine.MachineConfig",
        "sim.network.NetworkConfig",
        "sim.network.NetworkModel",
        "trace.tracer.TwoLevelTracer",
        # workloads
        "workloads.registry.create_workload",
        "workloads.registry.workload_names",
        "workloads.registry.paper_configurations",
        # declarative scenario API
        "scenario.scenario.Scenario",
        "scenario.scenario.ScenarioResult",
        "scenario.spec.ScenarioSpec",
        "scenario.spec.WorkloadSpec",
        "scenario.spec.MachineSpec",
        "scenario.spec.NetworkSpec",
        "scenario.spec.PolicySpec",
        "scenario.spec.PredictorSpec",
        "scenario.spec.TraceSpec",
        "scenario.sweep.Sweep",
        "scenario.sweep.load_sweep",
        # predictor (the paper's contribution)
        "core.dpd.DynamicPeriodicityDetector",
        "core.predictor.PeriodicityPredictor",
        "core.baselines.LastValuePredictor",
        "core.baselines.MostFrequentPredictor",
        "core.baselines.CyclePredictor",
        "core.baselines.MarkovPredictor",
        "core.baselines.StridePredictor",
        "core.evaluation.evaluate_stream",
        "core.evaluation.evaluate_unordered",
    ],
)
