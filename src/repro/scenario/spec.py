"""The declarative scenario specification tree.

A :class:`ScenarioSpec` is a frozen, picklable, JSON/TOML-able description of
one simulation: which workload at which size, on which machine and network
cost models, under which flow-control policy, evaluated with which predictor,
traced or not.  It is the front door for callers that hold *names* — the
CLI, the sweep engine and the paper's experiment context all construct one of
these and hand it to :class:`repro.scenario.Scenario`.  (Callers that hold
objects build a :class:`repro.sim.engine.Simulator` instead.)

Every node accepts three equivalent forms:

* **Python**: ``ScenarioSpec(workload=WorkloadSpec("bt", 9, scale=0.2))``
* **dicts** (and therefore TOML tables): ``{"workload": {"name": "bt",
  "nprocs": 9, "scale": 0.2}, "policy": {"kind": "credit"}}``
* **string shorthand**: ``ScenarioSpec(workload="bt.9:scale=0.2",
  policy="credit:horizon=5")``

Component names are resolved through the registries in
:mod:`repro.sim.registry` (machine/network presets) and
:mod:`repro.predictive.registry` (policies, predictors) at *build* time, so
specs can be constructed before custom components are registered and stay
cheap to create, compare and pickle.

Seed plumbing: :class:`NetworkSpec` (like :class:`~repro.sim.network.NetworkConfig`)
leaves its seed ``None`` by default, meaning "derive from the scenario
seed" — an override-only network configuration follows the experiment seed
exactly like the default one, on every path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tomllib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping

from repro.scenario.shorthand import split_shorthand
from repro.sim.faults import FaultConfig
from repro.sim.machine import MachineConfig
from repro.sim.network import NetworkConfig
from repro.sim.registry import create_faults, create_machine, create_network
from repro.predictive.registry import create_policy, predictor_factory
from repro.workloads.base import Workload
from repro.workloads.registry import LABEL_ABBREVIATIONS, create_workload

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

#: Paper-label abbreviations (``sw.32`` on the figures means sweep3d at 32),
#: shared with ``PaperConfiguration.label``.
_LABEL_SHORT = LABEL_ABBREVIATIONS
_LABEL_EXPAND = {short: full for full, short in _LABEL_SHORT.items()}


# ----------------------------------------------------------------------
# Frozen key/value payloads
# ----------------------------------------------------------------------
def _freeze_items(value) -> tuple[tuple[str, object], ...]:
    """Normalise a params payload to a canonical tuple of (key, value) pairs."""
    if value is None:
        return ()
    if isinstance(value, Mapping):
        items = value.items()
    else:
        items = list(value)
    frozen = []
    for item in items:
        key, val = item
        if not isinstance(key, str):
            raise TypeError(f"parameter names must be strings, got {key!r}")
        frozen.append((key, val))
    frozen.sort(key=lambda pair: pair[0])
    keys = [key for key, _ in frozen]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate parameter names in {keys}")
    return tuple(frozen)


def _items_dict(pairs: tuple[tuple[str, object], ...]) -> dict:
    """The tuple-of-pairs payload back as a plain dict."""
    return dict(pairs)


def _config_overrides(config, exclude: tuple[str, ...] = ()) -> dict:
    """Fields of a frozen config dataclass that differ from its defaults."""
    overrides = {}
    for field in dataclasses.fields(config):
        if field.name in exclude:
            continue
        value = getattr(config, field.name)
        if value != field.default:
            overrides[field.name] = value
    return overrides


def _reject_unknown_keys(kind: str, data: Mapping, known: tuple[str, ...]) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(
            f"unknown {kind} spec keys {unknown}; expected a subset of {sorted(known)}"
        )


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """Which workload skeleton to run, at which size and scale.

    ``None`` fields are *unset*: the workload class default applies (exactly
    as if the keyword were not passed to its constructor).  ``params`` holds
    extra workload-specific constructor keywords as a canonical tuple of
    pairs (use a dict when constructing; it is frozen automatically).
    """

    name: str
    nprocs: int
    scale: float | None = None
    iterations: int | None = None
    compute_time: float | None = None
    compute_noise: float | None = None
    params: tuple = ()

    _FIELDS = ("name", "nprocs", "scale", "iterations", "compute_time",
               "compute_noise", "params")

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _freeze_items(self.params))
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
        short = _LABEL_SHORT.get(self.name, self.name)
        return short if self.nprocs == 0 else f"{short}.{self.nprocs}"

    def build(self) -> Workload:
        """Instantiate the workload through the registry."""
        kwargs = _items_dict(self.params)
        for field in ("scale", "iterations", "compute_time", "compute_noise"):
            value = getattr(self, field)
            if value is not None:
                kwargs[field] = value
        return create_workload(self.name, nprocs=self.nprocs, **kwargs)

    # -- construction ------------------------------------------------------
    @classmethod
    def coerce(cls, value) -> "WorkloadSpec":
        """Accept a spec, a dict, or a shorthand string."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.from_shorthand(value)
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        raise TypeError(f"cannot build a WorkloadSpec from {value!r}")

    @classmethod
    def from_shorthand(cls, text: str) -> "WorkloadSpec":
        """Parse ``"bt.9:scale=0.2"`` / ``"bt:nprocs=9,scale=0.2"``."""
        head, params = split_shorthand(text)
        name, dot, count = head.rpartition(".")
        if dot and count.isdigit():
            if "nprocs" in params:
                raise ValueError(
                    f"workload shorthand {text!r} gives nprocs twice"
                )
            params["nprocs"] = int(count)
            head = name
        head = _LABEL_EXPAND.get(head, head)
        return cls.from_dict({"name": head, **params})

    @classmethod
    def from_dict(cls, data: Mapping) -> "WorkloadSpec":
        """Build from a dict; non-field keys land in ``params``."""
        data = dict(data)
        if "name" not in data:
            raise ValueError(f"workload spec {data!r} is missing 'name'")
        # A missing nprocs means the sentinel 0 (see __post_init__): legal
        # for replay specs, and a clear "nprocs must be positive" error at
        # build time for every other workload.
        data.setdefault("nprocs", 0)
        params = dict(data.pop("params", {}))
        kwargs = {}
        for field in cls._FIELDS:
            if field in data:
                kwargs[field] = data.pop(field)
        params.update(data)  # remaining keys are workload-specific knobs
        return cls(params=params, **kwargs)

    def to_dict(self) -> dict:
        """Canonical JSON-able form (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "nprocs": self.nprocs,
            "scale": self.scale,
            "iterations": self.iterations,
            "compute_time": self.compute_time,
            "compute_noise": self.compute_noise,
            "params": _items_dict(self.params),
        }


# ----------------------------------------------------------------------
# Machine / network cost models
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MachineSpec:
    """A machine preset name plus field overrides."""

    preset: str = "default"
    overrides: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "overrides", _freeze_items(self.overrides))

    def build(self) -> MachineConfig:
        """Resolve the preset through :mod:`repro.sim.registry`."""
        return create_machine(self.preset, **_items_dict(self.overrides))

    @classmethod
    def coerce(cls, value) -> "MachineSpec":
        """Accept a spec, None, a shorthand string, a dict, or a MachineConfig."""
        if isinstance(value, cls):
            return value
        if value is None:
            return cls()
        if isinstance(value, MachineConfig):
            return cls(overrides=_config_overrides(value))
        if isinstance(value, str):
            preset, params = split_shorthand(value)
            return cls(preset=preset, overrides=params)
        if isinstance(value, Mapping):
            data = dict(value)
            preset = data.pop("preset", "default")
            overrides = dict(data.pop("overrides", {}))
            overrides.update(data)  # flat form: remaining keys are overrides
            return cls(preset=preset, overrides=overrides)
        raise TypeError(f"cannot build a MachineSpec from {value!r}")

    def to_dict(self) -> dict:
        return {"preset": self.preset, "overrides": _items_dict(self.overrides)}


@dataclass(frozen=True)
class NetworkSpec:
    """A network preset name, an optional pinned seed, and field overrides.

    ``seed=None`` (the default) derives the jitter seed from the scenario
    seed, which is the paper recipe — every random stream of a run follows
    one experiment seed.  Pinning ``seed`` decouples the network stream (the
    jitter ablations pin it to compare policies under identical noise).
    """

    preset: str = "default"
    seed: int | None = None
    overrides: tuple = ()

    def __post_init__(self) -> None:
        overrides = dict(_freeze_items(self.overrides))
        if "seed" in overrides:  # normalise: the field owns the seed
            pinned = overrides.pop("seed")
            if self.seed is not None and self.seed != pinned:
                raise ValueError(
                    f"network spec pins seed twice: {self.seed} and {pinned}"
                )
            object.__setattr__(self, "seed", pinned)
        object.__setattr__(self, "overrides", _freeze_items(overrides))

    def build(self, run_seed: int) -> NetworkConfig:
        """Resolve to a :class:`NetworkConfig` with the seed settled.

        The pinned ``seed`` wins; otherwise ``run_seed`` (the scenario seed)
        is used, matching ``NetworkConfig(seed=run_seed)`` bit for bit.
        """
        seed = self.seed if self.seed is not None else run_seed
        return create_network(
            self.preset, seed=seed, **_items_dict(self.overrides)
        )

    @classmethod
    def coerce(cls, value) -> "NetworkSpec":
        """Accept a spec, None, a shorthand string, a dict, or a NetworkConfig."""
        if isinstance(value, cls):
            return value
        if value is None:
            return cls()
        if isinstance(value, NetworkConfig):
            return cls.from_config(value)
        if isinstance(value, str):
            preset, params = split_shorthand(value)
            return cls(preset=preset, overrides=params)
        if isinstance(value, Mapping):
            data = dict(value)
            preset = data.pop("preset", "default")
            seed = data.pop("seed", None)
            overrides = dict(data.pop("overrides", {}))
            overrides.update(data)
            return cls(preset=preset, seed=seed, overrides=overrides)
        raise TypeError(f"cannot build a NetworkSpec from {value!r}")

    @classmethod
    def from_config(cls, config: NetworkConfig) -> "NetworkSpec":
        """Spec-ify an existing configuration (non-default fields become
        overrides; an unpinned seed stays derivable)."""
        return cls(
            seed=config.seed,
            overrides=_config_overrides(config, exclude=("seed",)),
        )

    def to_dict(self) -> dict:
        return {
            "preset": self.preset,
            "seed": self.seed,
            "overrides": _items_dict(self.overrides),
        }


@dataclass(frozen=True)
class FaultSpec:
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

    def __post_init__(self) -> None:
        overrides = dict(_freeze_items(self.overrides))
        if "seed" in overrides:  # normalise: the field owns the seed
            pinned = overrides.pop("seed")
            if self.seed is not None and self.seed != pinned:
                raise ValueError(
                    f"fault spec pins seed twice: {self.seed} and {pinned}"
                )
            object.__setattr__(self, "seed", pinned)
        object.__setattr__(self, "overrides", _freeze_items(overrides))

    def build(self, run_seed: int) -> FaultConfig:
        """Resolve to a :class:`FaultConfig` with the seed settled."""
        seed = self.seed if self.seed is not None else run_seed
        return create_faults(self.preset, seed=seed, **_items_dict(self.overrides))

    @classmethod
    def coerce(cls, value) -> "FaultSpec":
        """Accept a spec, None, a shorthand string, a dict, or a FaultConfig."""
        if isinstance(value, cls):
            return value
        if value is None:
            return cls()
        if isinstance(value, FaultConfig):
            return cls.from_config(value)
        if isinstance(value, str):
            preset, params = split_shorthand(value)
            return cls(preset=preset, overrides=params)
        if isinstance(value, Mapping):
            data = dict(value)
            preset = data.pop("preset", "none")
            seed = data.pop("seed", None)
            overrides = dict(data.pop("overrides", {}))
            overrides.update(data)
            return cls(preset=preset, seed=seed, overrides=overrides)
        raise TypeError(f"cannot build a FaultSpec from {value!r}")

    @classmethod
    def from_config(cls, config: FaultConfig) -> "FaultSpec":
        """Spec-ify an existing configuration (non-default fields become
        overrides; an unpinned seed stays derivable)."""
        return cls(
            seed=config.seed,
            overrides=_config_overrides(config, exclude=("seed",)),
        )

    def to_dict(self) -> dict:
        return {
            "preset": self.preset,
            "seed": self.seed,
            "overrides": _items_dict(self.overrides),
        }


# ----------------------------------------------------------------------
# Policy / predictor / trace
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PolicySpec:
    """A registered flow-control policy by name, with constructor params."""

    kind: str = "standard"
    params: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _freeze_items(self.params))

    def build(self):
        """Instantiate through :mod:`repro.predictive.registry`."""
        return create_policy(self.kind, **_items_dict(self.params))

    @classmethod
    def coerce(cls, value) -> "PolicySpec":
        if isinstance(value, cls):
            return value
        if value is None:
            return cls()
        if isinstance(value, str):
            kind, params = split_shorthand(value)
            return cls(kind=kind, params=params)
        if isinstance(value, Mapping):
            data = dict(value)
            kind = data.pop("kind", "standard")
            params = dict(data.pop("params", {}))
            params.update(data)
            return cls(kind=kind, params=params)
        raise TypeError(f"cannot build a PolicySpec from {value!r}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": _items_dict(self.params)}


@dataclass(frozen=True)
class PredictorSpec:
    """The predictor evaluated over a scenario's streams, plus the horizon."""

    kind: str = "periodicity"
    horizon: int = 5
    params: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _freeze_items(self.params))
        if int(self.horizon) <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        object.__setattr__(self, "horizon", int(self.horizon))

    def factory(self) -> Callable[[], object]:
        """A zero-argument factory of fresh predictor instances."""
        return predictor_factory(self.kind, **_items_dict(self.params))

    @classmethod
    def coerce(cls, value) -> "PredictorSpec":
        if isinstance(value, cls):
            return value
        if value is None:
            return cls()
        if isinstance(value, str):
            kind, params = split_shorthand(value)
            horizon = params.pop("horizon", 5)
            return cls(kind=kind, horizon=horizon, params=params)
        if isinstance(value, Mapping):
            data = dict(value)
            kind = data.pop("kind", "periodicity")
            horizon = data.pop("horizon", 5)
            params = dict(data.pop("params", {}))
            params.update(data)
            return cls(kind=kind, horizon=horizon, params=params)
        raise TypeError(f"cannot build a PredictorSpec from {value!r}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "horizon": self.horizon,
            "params": _items_dict(self.params),
        }


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

    _FIELDS = ("workload", "seed", "machine", "network", "faults", "policy",
               "predictor", "trace", "name", "max_events", "max_wall_seconds",
               "compiled", "engine", "engine_jobs")

    def __post_init__(self) -> None:
        coerce = object.__setattr__
        coerce(self, "workload", WorkloadSpec.coerce(self.workload))
        coerce(self, "machine", MachineSpec.coerce(self.machine))
        coerce(self, "network", NetworkSpec.coerce(self.network))
        coerce(self, "faults", FaultSpec.coerce(self.faults))
        coerce(self, "policy", PolicySpec.coerce(self.policy))
        coerce(self, "predictor", PredictorSpec.coerce(self.predictor))
        coerce(self, "trace", TraceSpec.coerce(self.trace))
        coerce(self, "seed", int(self.seed))
        if self.max_wall_seconds is not None and self.max_wall_seconds <= 0:
            raise ValueError(
                f"max_wall_seconds must be positive, got {self.max_wall_seconds}"
            )
        if self.engine not in ("auto", "scalar", "vectorised", "parallel"):
            raise ValueError(
                "engine must be 'auto', 'scalar', 'vectorised' or 'parallel', "
                f"got {self.engine!r}"
            )
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
        _reject_unknown_keys("scenario", data, cls._FIELDS)
        if "workload" not in data:
            raise ValueError("scenario spec is missing 'workload'")
        return cls(**data)

    @classmethod
    def from_toml(cls, path: str | Path) -> "ScenarioSpec":
        """Load a scenario spec from a TOML file."""
        with Path(path).open("rb") as handle:
            return cls.from_dict(tomllib.load(handle))

    def to_dict(self) -> dict:
        """Canonical nested JSON-able form (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "workload": self.workload.to_dict(),
            "machine": self.machine.to_dict(),
            "network": self.network.to_dict(),
            "faults": self.faults.to_dict(),
            "policy": self.policy.to_dict(),
            "predictor": self.predictor.to_dict(),
            "trace": self.trace.to_dict(),
            "max_events": self.max_events,
            "max_wall_seconds": self.max_wall_seconds,
            "compiled": self.compiled,
            # "engine"/"engine_jobs" are intentionally absent: they cannot
            # change results, so they must not change content_hash() or
            # on-disk summaries.
        }

    def content_hash(self) -> str:
        """Stable identity of this spec's canonical dict form.

        The sweep engine keys its resumable on-disk manifest by this hash:
        two specs with identical canonical dicts — however they were
        constructed — share cached results, and any field change produces a
        new cell.  Sixteen hex digits (64 bits) keep manifest file names
        short while making accidental collision within one sweep negligible.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
