"""Declarative scenario API: specs, the run facade, and the sweep engine.

This package is the front door for callers that hold names (callers that
hold objects build a :class:`repro.sim.engine.Simulator`).  A scenario is
*described* as a frozen :class:`ScenarioSpec` tree — workload, machine,
network, flow-control policy, predictor, tracing — constructible from Python
objects, plain dicts, TOML files, or string shorthand; a :class:`Scenario`
*runs* one spec and returns a :class:`ScenarioResult` with lazy stream /
summary / prediction accessors; a :class:`Sweep` *expands* a spec template
(cartesian grids plus explicit cells) and runs all cells, optionally sharded
over worker processes bit-identically to a sequential run.

Quickstart::

    from repro.scenario import Scenario

    result = Scenario({"workload": "bt.9:scale=0.2", "seed": 7}).run()
    print(result.summary())                  # representative-rank stream
    print(result.predict("sender").accuracy(1))

Sweeps::

    from repro.scenario import Sweep

    sweep = Sweep(
        base={"workload": "bt.4:scale=0.1", "seed": 2003},
        grid={"network.overrides.jitter_sigma": [0.0, 0.2, 0.5]},
    )
    for cell in sweep.run_all(jobs=4):
        print(cell.label, cell.predict("sender", level="physical").accuracy(1))

Component names (``"credit"``, ``"noiseless"``, ``"periodicity"``) resolve
through the open registries in :mod:`repro.predictive.registry` and
:mod:`repro.sim.registry`; registering a new policy or preset there makes it
addressable from every spec, TOML file, and the ``repro sweep`` CLI.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    [
        "scenario.Scenario",
        "scenario.ScenarioResult",
        "spec.ScenarioSpec",
        "spec.WorkloadSpec",
        "spec.MachineSpec",
        "spec.NetworkSpec",
        "spec.FaultSpec",
        "spec.PolicySpec",
        "node.PredictorSpec",
        "spec.TraceSpec",
        "sweep.Sweep",
        "sweep.SweepAborted",
        "sweep.CellFailure",
        "sweep.CachedCell",
        "sweep.cell_record",
        "sweep.sweep_accuracy_table",
        "shorthand.coerce_scalar",
        "shorthand.parse_params",
        "shorthand.split_shorthand",
    ],
)
