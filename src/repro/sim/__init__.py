"""Discrete-event simulation substrate.

This package provides the machinery that stands in for the paper's real
IBM RS/6000 + MPICH testbed:

* :mod:`repro.sim.events` — a deterministic typed event queue (one binary
  heap of five-field records, batch records for same-timestamp runs).
* :mod:`repro.sim.network` — a latency/bandwidth/jitter network model (the
  source of the "random effects" that perturb the physical message stream).
* :mod:`repro.sim.machine` — per-node cost parameters (send/receive overheads,
  eager threshold, eager buffer sizes).
* :mod:`repro.sim.engine` — the simulator that drives generator-based rank
  programs and dispatches their MPI operations to the runtime transport.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    [
        "registry.create_faults",
        "registry.create_machine",
        "registry.create_network",
        "registry.fault_preset_names",
        "registry.machine_preset_names",
        "registry.network_preset_names",
        "registry.register_fault_preset",
        "registry.register_machine_preset",
        "registry.register_network_preset",
        "faults.FaultConfig",
        "faults.FaultInjector",
        "events.EVENT_CALLBACK",
        "events.EVENT_DELIVER",
        "events.EVENT_STEP",
        "events.EventQueue",
        "network.NetworkConfig",
        "network.NetworkModel",
        "machine.MachineConfig",
        "engine.Simulator",
        "engine.SimulationResult",
        "engine.RankState",
        "errors.SimulationError",
        "errors.TimeLimitExceeded",
        "errors.DeadlockError",
        "errors.ConfigurationError",
    ],
)
