"""Tests for the generic component registry (repro.util.registry)."""

import pytest

from repro.util.registry import ComponentRegistry


@pytest.fixture
def registry():
    reg = ComponentRegistry("widget")
    reg.register(
        "basic",
        dict,
        aliases=("b",),
        defaults={"size": 1},
        param_aliases={"sz": "size"},
        description="a basic widget",
    )
    return reg


class TestComponentRegistry:
    def test_create_applies_defaults_and_aliases(self, registry):
        assert registry.create("basic") == {"size": 1}
        assert registry.create("b", sz=4, color="red") == {"size": 4, "color": "red"}

    def test_alias_resolution(self, registry):
        assert registry.entry("b").name == "basic"
        assert "b" in registry and "basic" in registry
        assert "nope" not in registry

    def test_unknown_name_lists_available(self, registry):
        with pytest.raises(KeyError, match="unknown widget 'x'; available: basic"):
            registry.create("x")

    def test_duplicate_registration_rejected(self, registry):
        with pytest.raises(ValueError, match="already registered"):
            registry.register("basic", dict)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("fresh", dict, aliases=("b",))

    def test_bad_params_mention_component(self, registry):
        reg = ComponentRegistry("widget")
        reg.register("strict", lambda: object())
        with pytest.raises(TypeError, match="widget 'strict'"):
            reg.create("strict", unexpected=1)

    def test_describe_is_jsonable(self, registry):
        (entry,) = registry.describe()
        assert entry == {
            "name": "basic",
            "aliases": ["b"],
            "defaults": {"size": 1},
            "description": "a basic widget",
        }
