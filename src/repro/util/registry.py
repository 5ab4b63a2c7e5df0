"""Generic named-component registry.

The declarative scenario layer (:mod:`repro.scenario`) resolves every
pluggable component — flow-control policies, stream predictors, machine and
network presets — by *name* through a :class:`ComponentRegistry`.  Each entry
couples a factory with canonical defaults and parameter-name aliases, so the
string shorthands users write in specs (``"credit:horizon=5"``,
``"periodicity:window=24"``) map onto the constructors the code base already
has without every call site repeating the translation.

Registries are intentionally open: downstream code registers new components
(a custom policy, a site-specific network preset) and they immediately become
addressable from specs, TOML files and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

__all__ = ["ENGINES", "ComponentEntry", "ComponentRegistry"]

#: The drains ``Simulator(engine=...)`` accepts (here, so the CLI needs no simulator).
ENGINES = ("auto", "scalar", "vectorised", "parallel")


@dataclass(frozen=True)
class ComponentEntry:
    """One registered component: factory, canonical defaults, param aliases."""

    name: str
    factory: Callable
    defaults: Mapping[str, object] = field(default_factory=dict)
    aliases: Mapping[str, str] = field(default_factory=dict)
    description: str = ""


class ComponentRegistry:
    """Name → factory mapping with alias resolution and friendly errors.

    Parameters
    ----------
    kind:
        Human-readable component kind ("policy", "network preset", ...) used
        in error messages.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, ComponentEntry] = {}
        self._name_aliases: dict[str, str] = {}

    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        factory: Callable,
        *,
        aliases: tuple[str, ...] = (),
        defaults: Mapping[str, object] | None = None,
        param_aliases: Mapping[str, str] | None = None,
        description: str = "",
    ) -> None:
        """Register ``factory`` under ``name`` (plus optional alias names).

        ``defaults`` are keyword arguments applied unless the caller
        overrides them; ``param_aliases`` maps user-facing parameter names to
        the factory's actual keyword names (e.g. ``window -> window_size``).
        """
        if name in self._entries or name in self._name_aliases:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        self._entries[name] = ComponentEntry(
            name=name,
            factory=factory,
            defaults=dict(defaults or {}),
            aliases=dict(param_aliases or {}),
            description=description,
        )
        for alias in aliases:
            if alias in self._entries or alias in self._name_aliases:
                raise ValueError(f"{self.kind} alias {alias!r} is already registered")
            self._name_aliases[alias] = name

    def names(self) -> list[str]:
        """Canonical names of all registered components (sorted)."""
        return sorted(self._entries)

    def canonical_name(self, name: str) -> str:
        """Resolve ``name`` (canonical or alias) to the canonical name."""
        return self.entry(name).name

    def __contains__(self, name: str) -> bool:
        return name in self._entries or name in self._name_aliases

    def entry(self, name: str) -> ComponentEntry:
        """Look up a component entry by canonical name or alias."""
        canonical = self._name_aliases.get(name, name)
        try:
            return self._entries[canonical]
        except KeyError:
            raise KeyError(
                f"unknown {self.kind} {name!r}; available: {', '.join(self.names())}"
            ) from None

    def describe(self) -> list[dict]:
        """JSON-able description of every entry (feeds ``repro list --json``)."""
        rows = []
        for name in self.names():
            entry = self._entries[name]
            aliases = sorted(a for a, target in self._name_aliases.items() if target == name)
            rows.append(
                {
                    "name": name,
                    "aliases": aliases,
                    "defaults": dict(entry.defaults),
                    "description": entry.description,
                }
            )
        return rows

    # ------------------------------------------------------------------
    def create(self, name: str, **params):
        """Instantiate component ``name`` with ``params`` over its defaults."""
        return self.builder(name, **params)()

    def builder(self, name: str, **params) -> Callable[[], object]:
        """A zero-argument factory of component ``name``, resolved once, here:
        an unknown name raises now, and ``params`` go over the entry's defaults
        through :attr:`ComponentEntry.aliases` (the specs' friendly names)."""
        entry = self.entry(name)
        resolved = dict(entry.defaults)
        resolved.update((entry.aliases.get(key, key), value) for key, value in params.items())

        def build():
            try:
                return entry.factory(**resolved)
            except TypeError as error:
                raise TypeError(f"{self.kind} {entry.name!r}: {error}") from None

        return build
