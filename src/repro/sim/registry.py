"""Named machine, network and fault presets for the declarative scenario layer.

:class:`~repro.sim.machine.MachineConfig`,
:class:`~repro.sim.network.NetworkConfig` and
:class:`~repro.sim.faults.FaultConfig` are plain frozen dataclasses; specs
refer to them by *preset name* plus field overrides, e.g.::

    network = "noiseless"                       # string shorthand
    network = "default:jitter_sigma=0.5"        # preset with overrides
    faults  = "drop:rate=0.01,seed=7"           # fault-model shorthand
    [network]                                   # TOML table form
    preset = "noiseless"
    latency = 1e-6

Presets are registered here so new cost models (a fat-tree model, a
site-measured machine, a new fault mix) become addressable from specs and
TOML files without touching the scenario layer.
"""

from __future__ import annotations

from repro.sim.faults import FaultConfig
from repro.sim.machine import MachineConfig
from repro.sim.network import NetworkConfig
from repro.util.registry import ComponentRegistry

__all__ = [
    "ENGINES",
    "FAULT_PRESETS",
    "MACHINE_PRESETS",
    "NETWORK_PRESETS",
    "create_faults",
    "create_machine",
    "create_network",
    "fault_preset_names",
    "machine_preset_names",
    "network_preset_names",
    "register_fault_preset",
    "register_machine_preset",
    "register_network_preset",
]

#: The drains ``Simulator(engine=...)`` accepts: a constant here, beside the
#: presets, so that specs and the CLI check a name without importing the engine.
ENGINES = ("auto", "scalar", "vectorised", "parallel")

MACHINE_PRESETS = ComponentRegistry("machine preset")
NETWORK_PRESETS = ComponentRegistry("network preset")
FAULT_PRESETS = ComponentRegistry("fault preset")

MACHINE_PRESETS.register(
    "default",
    MachineConfig,
    description="LogGP-style IBM SP-class node: 16 KB eager threshold, "
    "per-message CPU overheads, rendezvous control messages.",
)

NETWORK_PRESETS.register(
    "default",
    NetworkConfig,
    description="Jittered network: latency + bandwidth + half-normal jitter "
    "and per-destination FIFO link contention.",
)
NETWORK_PRESETS.register(
    "noiseless",
    NetworkConfig.noiseless,
    description="Deterministic network: no jitter, no contention, no drops "
    "(physical stream equals logical stream).",
)


FAULT_PRESETS.register(
    "none",
    FaultConfig,
    description="No fault injection (all rates zero); bit-identical to a "
    "run without a fault configuration.",
)
FAULT_PRESETS.register(
    "drop",
    lambda rate=0.01, **overrides: _faults(dict(drop_rate=rate), overrides),
    description="Message drop + deterministic retransmit: each data payload "
    "is lost with probability `rate` and retransmitted after a timeout "
    "(spurious duplicates via duplicate_rate).",
)
FAULT_PRESETS.register(
    "degrade",
    lambda factor=4.0, **overrides: _faults(dict(degrade_factor=factor), overrides),
    description="Transient link degradation: seeded alternating windows "
    "during which every transfer delay is multiplied by `factor`.",
)
FAULT_PRESETS.register(
    "stall",
    lambda rate=0.001, **overrides: _faults(dict(stall_rate=rate), overrides),
    description="Rank stalls: before a compute phase a rank stalls with "
    "probability `rate` for an exponential extra delay (OS noise, paging).",
)
FAULT_PRESETS.register(
    "chaos",
    lambda **overrides: _faults(
        dict(
            drop_rate=0.005,
            duplicate_rate=0.25,
            degrade_factor=2.0,
            stall_rate=5.0e-4,
        ),
        overrides,
    ),
    description="All three fault models at moderate rates: drops with "
    "occasional duplicates, 2x link degradation windows, rank stalls.",
)


def _faults(base: dict, overrides: dict) -> FaultConfig:
    """Preset defaults merged under explicit field overrides.

    An explicit field override (``drop_rate`` from a sweep grid) beats the
    preset's alias parameter, instead of colliding with it.
    """
    base.update(overrides)
    return FaultConfig(**base)


def register_machine_preset(name: str, factory, **kwargs) -> None:
    """Register a machine preset factory returning a :class:`MachineConfig`."""
    MACHINE_PRESETS.register(name, factory, **kwargs)


def register_network_preset(name: str, factory, **kwargs) -> None:
    """Register a network preset factory returning a :class:`NetworkConfig`."""
    NETWORK_PRESETS.register(name, factory, **kwargs)


def register_fault_preset(name: str, factory, **kwargs) -> None:
    """Register a fault preset factory returning a :class:`FaultConfig`."""
    FAULT_PRESETS.register(name, factory, **kwargs)


def machine_preset_names() -> list[str]:
    """Names of all registered machine presets."""
    return MACHINE_PRESETS.names()


def network_preset_names() -> list[str]:
    """Names of all registered network presets."""
    return NETWORK_PRESETS.names()


def fault_preset_names() -> list[str]:
    """Names of all registered fault presets."""
    return FAULT_PRESETS.names()


def create_machine(preset: str = "default", **overrides) -> MachineConfig:
    """Build a :class:`MachineConfig` from a preset name plus field overrides."""
    return MACHINE_PRESETS.create(preset, **overrides)


def create_network(preset: str = "default", **overrides) -> NetworkConfig:
    """Build a :class:`NetworkConfig` from a preset name plus field overrides."""
    return NETWORK_PRESETS.create(preset, **overrides)


def create_faults(preset: str = "none", **overrides) -> FaultConfig:
    """Build a :class:`FaultConfig` from a preset name plus field overrides."""
    return FAULT_PRESETS.create(preset, **overrides)
