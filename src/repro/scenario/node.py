"""The base of the scenario spec's six component nodes, and the predictor node.

They live apart from :mod:`repro.scenario.spec`, which re-exports
:class:`PredictorSpec`, so that ``repro serve`` builds one without the simulator.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.scenario.shorthand import split_shorthand

__all__ = ["PredictorSpec"]


def _freeze_items(value) -> tuple[tuple[str, object], ...]:
    """Normalise a params payload to a canonical tuple of (key, value) pairs."""
    if value is None:
        return ()
    if isinstance(value, Mapping):
        items = value.items()
    else:
        items = list(value)
    frozen = []
    for key, val in items:
        if not isinstance(key, str):
            raise TypeError(f"parameter names must be strings, got {key!r}")
        frozen.append((key, val))
    frozen.sort(key=lambda pair: pair[0])
    keys = [key for key, _ in frozen]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate parameter names in {keys}")
    return tuple(frozen)


def _suggest(key: str, candidates) -> str:
    import difflib

    matches = difflib.get_close_matches(key, sorted(candidates), n=3)
    if matches:
        return f"; did you mean {' or '.join(repr(m) for m in matches)}?"
    return f"; valid keys: {sorted(candidates)}"


class _Node:
    """What the six component specs are: a registry name, a few scalar
    fields, and an open parameter table.

    A subclass is a frozen dataclass that says which of its fields is which:
    ``_NAME`` holds the registry name (``name`` / ``preset`` / ``kind``),
    ``_PARAMS`` holds the parameters (``params`` / ``overrides``, a canonical
    tuple of pairs — pass a dict, it is frozen on construction), and every
    other field is a scalar.  ``_CONFIG``, where set, is the config dataclass
    the parameters are fields of: an instance of it coerces like any other
    form, and grid paths below the node are checked against its field names.
    Coercion, the canonical dict, seed pinning and grid-path checking are
    written here, once, from those three attributes.
    """

    _NAME = "kind"
    _PARAMS = "params"
    _CONFIG = None

    def __post_init__(self) -> None:
        params = dict(_freeze_items(getattr(self, self._PARAMS)))
        if "seed" in params and hasattr(self, "seed"):  # the field owns the seed
            pinned = params.pop("seed")
            if self.seed is not None and self.seed != pinned:
                raise ValueError(
                    f"{type(self).__name__[:-4].lower()} spec pins seed twice: "
                    f"{self.seed} and {pinned}"
                )
            object.__setattr__(self, "seed", pinned)
        object.__setattr__(self, self._PARAMS, _freeze_items(params))

    def _arguments(self, run_seed: int | None = None) -> dict:
        """Keywords for the registry constructor: the parameters plus every
        scalar that is set.  A pinned ``seed`` wins; an unpinned one follows
        ``run_seed`` (the scenario seed)."""
        kwargs = dict(getattr(self, self._PARAMS))
        for field in dataclasses.fields(self):
            if field.name not in (self._NAME, self._PARAMS):
                value = getattr(self, field.name)
                if value is None and field.name == "seed":
                    value = run_seed
                if value is not None:
                    kwargs[field.name] = value
        return kwargs

    # -- construction ------------------------------------------------------
    @classmethod
    def coerce(cls, value):
        """Accept an instance, ``None`` (every default, where the name has
        one), a shorthand string, a dict, or a ``_CONFIG`` instance."""
        if isinstance(value, cls):
            return value
        name_default = cls.__dataclass_fields__[cls._NAME].default
        if value is None and name_default is not dataclasses.MISSING:
            return cls()
        if isinstance(value, str):
            return cls.from_shorthand(value)
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        if cls._CONFIG is not None and isinstance(value, cls._CONFIG):
            return cls.from_config(value)
        raise TypeError(f"cannot build a {cls.__name__} from {value!r}")

    @classmethod
    def from_shorthand(cls, text: str):
        """Parse ``"name:key=value,..."``; a key that is a field sets it."""
        head, params = split_shorthand(text)
        return cls.from_dict({cls._NAME: head, **params})

    @classmethod
    def from_dict(cls, data: Mapping):
        """Build from a dict.  Parameters sit nested under the parameter
        field, flat beside the other keys, or both (a flat key wins)."""
        data = dict(data)
        params = dict(data.pop(cls._PARAMS, {}))
        kwargs = {
            field.name: data.pop(field.name)
            for field in dataclasses.fields(cls)
            if field.name in data
        }
        params.update(data)
        return cls(**kwargs, **{cls._PARAMS: params})

    @classmethod
    def from_config(cls, config):
        """Spec-ify an existing configuration: non-default fields become
        parameters, a pinned seed lands in its field and an unpinned one
        stays derivable."""
        return cls.from_dict({
            field.name: getattr(config, field.name)
            for field in dataclasses.fields(config)
            if getattr(config, field.name) != field.default
        })

    def to_dict(self) -> dict:
        """Canonical JSON-able form (inverse of :meth:`from_dict`)."""
        data = {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}
        data[self._PARAMS] = dict(data[self._PARAMS])
        return data

    @classmethod
    def _check_grid_keys(cls, path: str, head: str, keys: list[str]) -> None:
        """Check the keys of grid path ``path`` below this node, which is the
        scenario field ``head``: at most one key, or the parameter field and
        one key; with a ``_CONFIG``, the key must be one of its fields."""
        leaf = "field" if cls._CONFIG is not None else "key"
        if len(keys) > 2 or (len(keys) == 2 and keys[0] != cls._PARAMS):
            raise ValueError(
                f"grid path {path!r} is too deep for {head!r}; sweep "
                f"'{head}.<{leaf}>' or '{head}.{cls._PARAMS}.<{leaf}>'"
            )
        if cls._CONFIG is None or not keys:
            return  # open parameters: any key is a constructor keyword
        fields = [field.name for field in dataclasses.fields(cls._CONFIG)]
        if len(keys) == 2:
            if keys[1] not in fields:
                raise ValueError(
                    f"grid path {path!r}: {keys[1]!r} is not a "
                    f"{cls._CONFIG.__name__} field" + _suggest(keys[1], fields)
                )
            return
        known = fields + [field.name for field in dataclasses.fields(cls)]
        if keys[0] not in known:
            raise ValueError(
                f"grid path {path!r}: {keys[0]!r} is neither a {head} spec "
                f"key nor a {cls._CONFIG.__name__} field" + _suggest(keys[0], known)
            )


@dataclass(frozen=True)
class PredictorSpec(_Node):
    """The predictor evaluated over a scenario's streams, plus the horizon."""

    kind: str = "periodicity"
    horizon: int = 5
    params: tuple = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if int(self.horizon) <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        object.__setattr__(self, "horizon", int(self.horizon))

    def factory(self) -> Callable[[], object]:
        """A zero-argument factory of fresh predictor instances (``horizon``
        belongs to the evaluation, not to the predictor's constructor)."""
        from repro.predictive.registry import predictor_factory

        return predictor_factory(self.kind, **dict(self.params))
