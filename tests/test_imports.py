"""What importing ``repro`` loads: lazy package front doors, and the serve path alone.

Every package ``__init__`` re-exports its public names through
:func:`repro._lazy.lazy_exports`, numpy is imported (and version-checked) by
:mod:`repro._numpy` only, and ``repro serve`` over a pipe answers observe,
predict, expects and stats lines, snapshots and restores without numpy,
``asyncio``, the simulator, the workloads, the tracer or the analysis package.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

PACKAGES = ["repro"] + [
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
]

#: Modules a served stream must never load (a prefix covers its submodules).
NOT_ON_THE_SERVE_PATH = (
    "numpy",
    "asyncio",
    "repro.sim.engine",
    "repro.runtime.transport",
    "repro.mpi",
    "repro.workloads",
    "repro.trace",
    "repro.analysis",
)

FEED = (
    "".join(
        f'{{"receiver": "r{rank}", "sender": {sender}, "nbytes": {64 * (1 + sender % 2)}}}\n'
        for _ in range(12)
        for rank in range(3)
        for sender in (1, 2, 3)
    )
    + '{"op": "flush"}\n'
)
QUERIES = "".join(
    f'{{"op": "predict", "receiver": "r{rank}"}}\n'
    f'{{"op": "expects", "receiver": "r{rank}", "sender": 2, "nbytes": 128}}\n'
    for rank in range(4)
) + '{"op": "stats"}\n'


def serve(*args: str, stdin: str, importtime: bool = False) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, *(["-X", "importtime"] if importtime else []), "-m", "repro"]
    done = subprocess.run(
        [*command, "serve", "--stdin", *args],
        input=stdin, capture_output=True, text=True, env=env, timeout=120,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr[-2000:]
    return done


def imported(stderr: str) -> set[str]:
    """The modules ``-X importtime`` reported, from its ``import time:`` lines."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


# ----------------------------------------------------------------------
# The serve path
# ----------------------------------------------------------------------
def off_the_serve_path(done: subprocess.CompletedProcess) -> list[str]:
    """The modules of :data:`NOT_ON_THE_SERVE_PATH` an ``-X importtime`` run loaded."""
    return sorted(
        module
        for module in imported(done.stderr)
        for banned in NOT_ON_THE_SERVE_PATH
        if module == banned or module.startswith(banned + ".")
    )


def test_a_served_stream_imports_the_serve_path_only(tmp_path):
    done = serve(stdin=FEED + QUERIES, importtime=True)
    modules = imported(done.stderr)
    assert "repro.serve.service" in modules and "repro.core.dpd" in modules
    assert off_the_serve_path(done) == []
    answers = done.stdout.splitlines()
    assert len(answers) == 1 + 2 * 4 + 1  # flush, predict + expects per receiver, stats
    assert '"known":true' in answers[1] and '"known":false' in answers[-3]

    # The same traffic snapshotted, then restored: the same answers, byte for
    # byte, and neither writing nor reading the snapshot leaves the serve path.
    snapshot = tmp_path / "snap"
    again = serve("--snapshot-dir", str(snapshot), stdin=FEED + QUERIES, importtime=True)
    assert "repro.serve.snapshot" in imported(again.stderr)
    assert off_the_serve_path(again) == []
    assert again.stdout == done.stdout
    restored = serve("--restore", str(snapshot), stdin=QUERIES, importtime=True)
    assert "repro.predictive.state" in imported(restored.stderr)
    assert off_the_serve_path(restored) == []
    assert restored.stdout.splitlines() == answers[1:]


def loaded_by(code: str) -> list[str]:
    """The ``repro`` and numpy modules a fresh interpreter holds after ``code``."""
    code += "; import sys; print(*sorted(m for m in sys.modules if m[:5] in ('repro', 'numpy')))"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )  # fmt: skip
    return done.stdout.split()


def test_building_the_cli_parser_imports_no_command():
    modules = loaded_by("from repro.cli import build_parser; build_parser()")
    assert "repro.cli" in modules
    commands = ("repro.serve", "repro.scenario", "repro.core", "repro.predictive")
    assert [m for m in modules if m.startswith(NOT_ON_THE_SERVE_PATH + commands)] == []


# ----------------------------------------------------------------------
# Lazy front doors
# ----------------------------------------------------------------------
def defining_module_holds(package, name: str, value) -> bool:
    """Whether ``value`` is what the module that defines ``name`` holds under it."""
    home = getattr(value, "__module__", None)
    if home is not None and home.startswith("repro.") and hasattr(value, "__qualname__"):
        return getattr(importlib.import_module(home), name) is value
    # A constant: one of the package's own modules holds it.
    for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
        module = importlib.import_module(info.name)
        if getattr(module, name, None) is value and name in getattr(module, "__all__", ()):
            return True
    return False


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves_to_its_defining_object(name):
    package = importlib.import_module(name)
    listed = dir(package)
    for export in package.__all__:
        value = getattr(package, export)
        assert export in listed, export
        if export != "__version__":
            assert defining_module_holds(package, export, value), export


@pytest.mark.parametrize("name", PACKAGES)
def test_an_unknown_name_is_an_attribute_error_naming_the_package(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=f"module '{name}' has no attribute 'no_such_name'"):
        getattr(package, "no_such_name")


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["Simulator"] is importlib.import_module("repro.sim.engine").Simulator


def test_importing_the_package_imports_no_numpy_and_no_subpackage():
    assert loaded_by("import repro") == ["repro", "repro._lazy"]


def test_an_old_numpy_is_refused_with_an_actionable_message(monkeypatch):
    importlib.import_module("repro._numpy")
    monkeypatch.setattr(numpy, "__version__", "1.21.6")
    monkeypatch.delitem(sys.modules, "repro._numpy")
    with pytest.raises(ImportError) as refused:
        importlib.import_module("repro._numpy")
    assert str(refused.value) == (
        "repro requires numpy >= 1.22, found 1.21.6; upgrade with 'pip install -U numpy'"
    )
