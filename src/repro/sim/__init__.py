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

from repro.sim.engine import RankState, SimulationResult, Simulator
from repro.sim.errors import (
    ConfigurationError,
    DeadlockError,
    SimulationError,
    TimeLimitExceeded,
)
from repro.sim.events import EVENT_CALLBACK, EVENT_DELIVER, EVENT_STEP, EventQueue
from repro.sim.faults import FaultConfig, FaultInjector
from repro.sim.machine import MachineConfig
from repro.sim.network import NetworkConfig, NetworkModel
from repro.sim.registry import (
    create_faults,
    create_machine,
    create_network,
    fault_preset_names,
    machine_preset_names,
    network_preset_names,
    register_fault_preset,
    register_machine_preset,
    register_network_preset,
)

__all__ = [
    "create_faults",
    "create_machine",
    "create_network",
    "fault_preset_names",
    "machine_preset_names",
    "network_preset_names",
    "register_fault_preset",
    "register_machine_preset",
    "register_network_preset",
    "FaultConfig",
    "FaultInjector",
    "EVENT_CALLBACK",
    "EVENT_DELIVER",
    "EVENT_STEP",
    "EventQueue",
    "NetworkConfig",
    "NetworkModel",
    "MachineConfig",
    "Simulator",
    "SimulationResult",
    "RankState",
    "SimulationError",
    "TimeLimitExceeded",
    "DeadlockError",
    "ConfigurationError",
]
