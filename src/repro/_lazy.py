"""Package front doors that import nothing until a name is read (PEP 562).

Every ``repro`` package lists its public names through :func:`lazy_exports`,
so ``import repro.serve.service`` loads the serve path and not the
simulator, the workloads or the analysis behind the other front doors.
``__all__``, ``dir()`` and ``from repro import *`` are what they would be
with eager imports.
"""

from __future__ import annotations

import importlib
import sys

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: list[str]):
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of a package whose names load on first read.

    ``exports`` is ``__all__`` with each name written ``"module.name"``, the
    module relative to ``package`` (a name without one is defined by the
    package itself).  The first read of a name imports its module and binds
    the name in the package, so every later read is a plain attribute lookup.
    """
    names, origin = [], {}
    for entry in exports:
        module, _, name = entry.rpartition(".")
        names.append(name)
        if module:
            origin[name] = f"{package}.{module}"

    def __getattr__(name: str):
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *origin})

    return __getattr__, __dir__, names
