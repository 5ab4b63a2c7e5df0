"""The declarative scenario specification tree.

A :class:`ScenarioSpec` is a frozen, picklable, JSON/TOML-able description of
one simulation: which workload at which size, on which machine and network
cost models, under which flow-control policy, evaluated with which predictor,
traced or not.  It is the front door for callers that hold *names* — the
CLI, the sweep engine and the paper's experiment context all construct one of
these and hand it to :class:`repro.scenario.Scenario`.  (Callers that hold
objects build a :class:`repro.sim.engine.Simulator` instead.)

This module is the one owner of the schema.  The six component nodes are
frozen dataclasses over one private base (:class:`_Node`, which lives with
:class:`PredictorSpec` in :mod:`repro.scenario.node`) that is told which
field is the registry name, which holds the parameters and which config
dataclass the parameters are fields of; coercion, the canonical dict, seed
pinning and grid-path checking are written there once, and
:class:`ScenarioSpec` loops over its node fields — the sweep engine and the
CLI keep no second description of the tree.

Every node accepts three equivalent forms:

* **Python**: ``ScenarioSpec(workload=WorkloadSpec("bt", 9, scale=0.2))``
* **dicts** (and therefore TOML tables): ``{"workload": {"name": "bt",
  "nprocs": 9, "scale": 0.2}, "policy": {"kind": "credit"}}``
* **string shorthand**: ``ScenarioSpec(workload="bt.9:scale=0.2",
  policy="credit:horizon=5")``

Component names are resolved through the registries in
:mod:`repro.sim.registry` (machine/network presets),
:mod:`repro.predictive.registry` (policies, predictors) and
:mod:`repro.workloads.registry` at *build* time, so specs can be constructed
before custom components are registered and stay cheap to create, compare
and pickle.  The policy, predictor and workload registries are also only
*imported* at build time.

Seed plumbing: :class:`NetworkSpec` and :class:`FaultSpec` (like their
config classes) leave ``seed`` ``None`` by default, meaning "derive from the
scenario seed" — an override-only configuration follows the experiment seed
exactly like the default one, on every path; a pinned seed wins.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, get_type_hints

from repro.scenario.node import PredictorSpec, _Node, _suggest
from repro.scenario.shorthand import split_shorthand
from repro.sim.faults import FaultConfig
from repro.sim.machine import MachineConfig
from repro.sim.network import NetworkConfig
from repro.sim.registry import create_faults, create_machine, create_network
from repro.util.digest import sha256
from repro.util.registry import ENGINES

if TYPE_CHECKING:
    from repro.workloads.base import Workload

__all__ = [
    "WorkloadSpec",
    "MachineSpec",
    "NetworkSpec",
    "FaultSpec",
    "PolicySpec",
    "PredictorSpec",
    "TraceSpec",
    "ScenarioSpec",
]

def _reject_unknown_keys(kind: str, data: Mapping, known) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(
            f"unknown {kind} spec keys {unknown}; expected a subset of {sorted(known)}"
        )


# ----------------------------------------------------------------------
# Component nodes (the base and PredictorSpec: repro.scenario.node)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec(_Node):
    """Which workload skeleton to run, at which size and scale.

    ``None`` fields are *unset*: the workload class default applies (exactly
    as if the keyword were not passed to its constructor).  ``params`` holds
    extra workload-specific constructor keywords.
    """

    name: str
    nprocs: int
    scale: float | None = None
    iterations: int | None = None
    compute_time: float | None = None
    compute_noise: float | None = None
    params: tuple = ()

    _NAME = "name"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.name:
            raise ValueError("workload spec needs a workload name")
        # nprocs == 0 is the "resolved by the workload" sentinel: trace
        # replay (``replay:file=...``) takes its process count from the
        # file.  Workloads that need an explicit count still reject 0 in
        # their own constructors, with the same error they always raised.
        if int(self.nprocs) < 0:
            raise ValueError(f"nprocs must be positive, got {self.nprocs}")
        object.__setattr__(self, "nprocs", int(self.nprocs))

    @property
    def label(self) -> str:
        """Paper-style label, e.g. ``bt.9`` (``sw.32`` for sweep3d)."""
        from repro.workloads.registry import LABEL_ABBREVIATIONS

        short = LABEL_ABBREVIATIONS.get(self.name, self.name)
        return short if self.nprocs == 0 else f"{short}.{self.nprocs}"

    def build(self) -> Workload:
        """Instantiate the workload through the registry."""
        from repro.workloads.registry import create_workload

        return create_workload(self.name, **self._arguments())

    @classmethod
    def from_shorthand(cls, text: str) -> "WorkloadSpec":
        """Parse ``"bt.9:scale=0.2"`` / ``"bt:nprocs=9,scale=0.2"``; a paper
        label's abbreviation (``sw.32``) names its workload (sweep3d)."""
        from repro.workloads.registry import LABEL_ABBREVIATIONS

        head, params = split_shorthand(text)
        name, dot, count = head.rpartition(".")
        if dot and count.isdigit():
            if "nprocs" in params:
                raise ValueError(
                    f"workload shorthand {text!r} gives nprocs twice"
                )
            params["nprocs"] = int(count)
            head = name
        expand = {short: full for full, short in LABEL_ABBREVIATIONS.items()}
        head = expand.get(head, head)
        return cls.from_dict({"name": head, **params})

    @classmethod
    def from_dict(cls, data: Mapping) -> "WorkloadSpec":
        """Build from a dict; non-field keys land in ``params``."""
        if "name" not in data:
            raise ValueError(f"workload spec {dict(data)!r} is missing 'name'")
        # A missing nprocs means the sentinel 0 (see __post_init__): legal
        # for replay specs, and a clear "nprocs must be positive" error at
        # build time for every other workload.
        return super().from_dict({"nprocs": 0, **data})


@dataclass(frozen=True)
class MachineSpec(_Node):
    """A machine preset name plus :class:`MachineConfig` field overrides."""

    preset: str = "default"
    overrides: tuple = ()

    _NAME, _PARAMS, _CONFIG = "preset", "overrides", MachineConfig

    def build(self) -> MachineConfig:
        """Resolve the preset through :mod:`repro.sim.registry`."""
        return create_machine(self.preset, **self._arguments())


@dataclass(frozen=True)
class NetworkSpec(_Node):
    """A network preset name, an optional pinned seed, and field overrides.

    ``seed=None`` (the default) derives the jitter seed from the scenario
    seed, which is the paper recipe — every random stream of a run follows
    one experiment seed.  Pinning ``seed`` decouples the network stream (the
    jitter ablations pin it to compare policies under identical noise).
    """

    preset: str = "default"
    seed: int | None = None
    overrides: tuple = ()

    _NAME, _PARAMS, _CONFIG = "preset", "overrides", NetworkConfig

    def build(self, run_seed: int) -> NetworkConfig:
        """Resolve to a :class:`NetworkConfig` with the seed settled,
        matching ``NetworkConfig(seed=run_seed)`` bit for bit when unpinned."""
        return create_network(self.preset, **self._arguments(run_seed))


@dataclass(frozen=True)
class FaultSpec(_Node):
    """A fault-injection preset name, an optional pinned seed, and overrides.

    The default preset ``"none"`` resolves to a null :class:`FaultConfig`
    (all rates zero), for which the scenario layer builds *no* injector at
    all — a spec with the default fault table is bit-identical to one that
    predates fault injection.  ``seed=None`` derives the fault streams from
    the scenario seed; pinning it holds the fault schedule fixed while the
    rest of the run (jitter, compute noise) varies with the experiment seed.
    """

    preset: str = "none"
    seed: int | None = None
    overrides: tuple = ()

    _NAME, _PARAMS, _CONFIG = "preset", "overrides", FaultConfig

    def build(self, run_seed: int) -> FaultConfig:
        """Resolve to a :class:`FaultConfig` with the seed settled."""
        return create_faults(self.preset, **self._arguments(run_seed))


@dataclass(frozen=True)
class PolicySpec(_Node):
    """A registered flow-control policy by name, with constructor params."""

    kind: str = "standard"
    params: tuple = ()

    def build(self):
        """Instantiate through :mod:`repro.predictive.registry`."""
        from repro.predictive.registry import create_policy

        return create_policy(self.kind, **self._arguments())


@dataclass(frozen=True)
class TraceSpec:
    """Whether to record two-level traces, and where to save them."""

    enabled: bool = True
    path: str | None = None

    def __post_init__(self) -> None:
        if self.path is not None and not self.enabled:
            raise ValueError("trace spec has a save path but tracing disabled")

    @classmethod
    def coerce(cls, value) -> "TraceSpec":
        if isinstance(value, cls):
            return value
        if value is None:
            return cls()
        if isinstance(value, bool):
            return cls(enabled=value)
        if isinstance(value, str):
            return cls(path=value)
        if isinstance(value, Mapping):
            _reject_unknown_keys("trace", value, ("enabled", "path"))
            return cls(**value)
        raise TypeError(f"cannot build a TraceSpec from {value!r}")

    def to_dict(self) -> dict:
        return {"enabled": self.enabled, "path": self.path}

    @classmethod
    def _check_grid_keys(cls, path: str, head: str, keys: list[str]) -> None:
        if len(keys) > 1 or (keys and keys[0] not in ("enabled", "path")):
            raise ValueError(
                f"grid path {path!r}: trace keys are 'enabled' and 'path'"
                + ("" if len(keys) == 1 else " (one level deep)")
            )


# ----------------------------------------------------------------------
# The scenario root
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-described simulation scenario.

    Every sub-spec field coerces on construction, so all of these are
    equivalent::

        ScenarioSpec(workload=WorkloadSpec("bt", 9), policy=PolicySpec("credit"))
        ScenarioSpec(workload="bt.9", policy="credit")
        ScenarioSpec.from_dict({"workload": "bt.9", "policy": "credit"})
        ScenarioSpec.from_toml("scenario.toml")    # same keys as TOML tables
    """

    workload: WorkloadSpec
    seed: int = 2003
    machine: MachineSpec = MachineSpec()
    network: NetworkSpec = NetworkSpec()
    faults: FaultSpec = FaultSpec()
    policy: PolicySpec = PolicySpec()
    predictor: PredictorSpec = PredictorSpec()
    trace: TraceSpec = TraceSpec()
    name: str | None = None
    max_events: int | None = None
    max_wall_seconds: float | None = None
    compiled: bool = True
    #: Engine drain selection forwarded to :class:`repro.sim.engine.Simulator`
    #: (``"auto"``/``"scalar"``/``"vectorised"``/``"parallel"``).  Deliberately
    #: **excluded** from :meth:`to_dict` and :meth:`content_hash`: all drains
    #: produce bit-identical results, so the knob is an execution detail —
    #: specs that differ only in it share sweep cache cells and summary output.
    engine: str = "auto"
    #: Worker-process count for ``engine="parallel"`` (ignored otherwise).
    #: 0 means auto-tune: the engine resolves it to ``os.cpu_count()``.
    #: Excluded from identity for the same reason as ``engine``.
    engine_jobs: int = 2

    def __post_init__(self) -> None:
        coerce = object.__setattr__
        for field, node in _NODES.items():
            coerce(self, field, node.coerce(getattr(self, field)))
        coerce(self, "seed", int(self.seed))
        if self.max_wall_seconds is not None and self.max_wall_seconds <= 0:
            raise ValueError(
                f"max_wall_seconds must be positive, got {self.max_wall_seconds}"
            )
        if self.engine not in ENGINES:
            message = "engine must be {!r}, {!r}, {!r} or {!r}, got {!r}"
            raise ValueError(message.format(*ENGINES, self.engine))
        coerce(self, "engine_jobs", int(self.engine_jobs))
        if self.engine_jobs < 0:
            raise ValueError(
                f"engine_jobs must be positive (or 0 for auto), got {self.engine_jobs}"
            )

    # -- identity ----------------------------------------------------------
    @property
    def label(self) -> str:
        """Display label: the explicit name, else the workload label."""
        return self.name if self.name else self.workload.label

    def cost_hint(self) -> float:
        """Relative expected simulation *wall-clock* cost (drives longest-first
        sharding).

        LU's per-scale message volume is ~10x the other applications', the
        same weighting :mod:`repro.analysis.experiments` has always used to
        pack the process pool.  A ``parallel``-engine cell spreads its events
        over ``engine_jobs`` workers, so its wall-clock share shrinks
        accordingly — the sweep scheduler should not treat it as the longest
        job just because its rank count is large.
        """
        scale = self.workload.scale if self.workload.scale is not None else 1.0
        weight = 10.0 if self.workload.name == "lu" else 1.0
        cost = self.workload.nprocs * scale * weight
        if self.engine == "parallel" and self.engine_jobs > 1:
            cost /= self.engine_jobs
        return cost

    def with_overrides(self, **kwargs) -> "ScenarioSpec":
        """A copy with the given fields replaced (sub-specs re-coerce)."""
        return replace(self, **kwargs)

    # -- construction ------------------------------------------------------
    @classmethod
    def coerce(cls, value) -> "ScenarioSpec":
        """Accept a spec, a workload shorthand string, or a dict."""
        if isinstance(value, cls):
            return value
        if isinstance(value, (str, WorkloadSpec)):
            return cls(workload=value)
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        raise TypeError(f"cannot build a ScenarioSpec from {value!r}")

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioSpec":
        """Build from a plain dict (the TOML table form)."""
        data = dict(data)
        _reject_unknown_keys(
            "scenario", data, [field.name for field in dataclasses.fields(cls)]
        )
        if "workload" not in data:
            raise ValueError("scenario spec is missing 'workload'")
        return cls(**data)

    @classmethod
    def from_toml(cls, path: str | Path) -> "ScenarioSpec":
        """Load a scenario spec from a TOML file."""
        import tomllib

        with Path(path).open("rb") as handle:
            return cls.from_dict(tomllib.load(handle))

    @classmethod
    def check_grid_path(cls, path: str) -> None:
        """Check one dotted sweep-grid path against the spec tree.

        Raises :class:`ValueError` naming the bad path and the nearest valid
        keys: the head must be a field of this class, a scalar field cannot
        be descended into, and each node checks the keys below itself.
        """
        keys = [key for key in path.split(".") if key]
        if not keys:
            raise ValueError("empty grid path")
        head = keys[0]
        fields = [field.name for field in dataclasses.fields(cls)]
        if head not in fields:
            raise ValueError(
                f"grid path {path!r}: {head!r} is not a scenario spec field"
                + _suggest(head, fields)
            )
        if head in _NODES:
            _NODES[head]._check_grid_keys(path, head, keys[1:])
        elif len(keys) > 1:
            raise ValueError(
                f"grid path {path!r} descends into scalar field {head!r}; "
                f"use {head!r} itself"
            )

    def to_dict(self) -> dict:
        """Canonical nested JSON-able form (inverse of :meth:`from_dict`):
        every field but the execution details ``engine`` / ``engine_jobs``."""
        data = {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
            if field.name not in ("engine", "engine_jobs")
        }
        for field in _NODES:
            data[field] = data[field].to_dict()
        return data

    def content_hash(self) -> str:
        """Stable identity of this spec's canonical dict form.

        The sweep engine keys its resumable on-disk manifest by this hash:
        two specs with identical canonical dicts — however they were
        constructed — share cached results, and any field change produces a
        new cell.  Sixteen hex digits (64 bits) keep manifest file names
        short while making accidental collision within one sweep negligible.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return sha256(canonical.encode("utf-8")).hexdigest()[:16]


#: The fields of :class:`ScenarioSpec` that hold a node, by the node class
#: their annotation names — what ``__post_init__`` coerces, ``to_dict``
#: descends into and ``check_grid_path`` hands the rest of a path to.
_NODES = {
    name: hint
    for name, hint in get_type_hints(ScenarioSpec).items()
    if isinstance(hint, type) and hasattr(hint, "coerce")
}
