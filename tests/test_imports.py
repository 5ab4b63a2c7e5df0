"""What importing ``repro`` loads: lazy package front doors, and the serve path alone.

Every package ``__init__`` re-exports its public names through
:func:`repro._lazy.lazy_exports`, numpy is imported (and version-checked) by
:mod:`repro._numpy` only, and ``repro serve``, over a pipe or over TCP,
answers observe, predict, expects and stats lines, snapshots and restores
without numpy, ``asyncio``, ``ssl``, ``hashlib`` (OpenSSL's libcrypto: its
digests come from the built-in sha256), the simulator, the runtime, the
scenario tree, the flow-control policies, the workloads, the tracer or the
analysis package.  A single simulation, set up the way the paper's cells
are, loads neither the sweep runner nor the offline scorer, the stream
summaries or the trace readers.
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
from repro.serve.client import ServeClient

SRC = Path(repro.__file__).resolve().parents[1]

PACKAGES = ["repro"] + [
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
]

#: Modules a served stream must never load, not even to snapshot or restore
#: (a prefix covers its submodules).
NOT_ON_THE_SERVE_PATH = (
    "numpy",
    "asyncio",
    "ssl",
    "_ssl",
    "hashlib",
    "_hashlib",
    "repro.sim",
    "repro.runtime",
    "repro.scenario.spec",
    "repro.predictive.credit_policy",
    "repro.predictive.buffer_manager",
    "repro.predictive.rendezvous_bypass",
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


def serve(transport: str, *args: str, lines: str, tmp_path: Path) -> tuple[str, set[str]]:
    """``lines`` served by ``repro serve`` under ``-X importtime``: its answers and modules.

    ``stdin`` pipes them in; ``tcp`` starts ``--port 0``, sends them through
    :class:`ServeClient` and stops the server with ``shutdown``.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-X", "importtime", "-m", "repro", "serve"]
    if transport == "stdin":
        done = subprocess.run(
            [*command, "--stdin", *args],
            input=lines, capture_output=True, text=True, env=env, timeout=120,
        )  # fmt: skip
        assert done.returncode == 0, done.stderr[-2000:]
        return done.stdout, imported(done.stderr)
    log = tmp_path / "importtime.log"
    with log.open("w") as stderr, subprocess.Popen(
        [*command, "--port", "0", *args], stdout=subprocess.PIPE, stderr=stderr, text=True, env=env
    ) as server:
        try:
            port = int(server.stdout.readline().rsplit(":", 1)[1])
            with ServeClient.connect(port=port, timeout=60) as client:
                for line in lines.splitlines():
                    client.send_raw(line)
                client.flush_io()
                answers = [client._reader.readline() for _ in range(lines.count('"op"'))]
                assert client.shutdown() == {"op": "shutdown", "ok": True}
            assert server.wait(timeout=120) == 0, log.read_text()[-2000:]
        finally:
            server.kill()
    return "".join(answers), imported(log.read_text())


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
def off_the_serve_path(modules: set[str]) -> list[str]:
    """The banned modules an ``-X importtime`` run loaded."""
    return sorted(
        module
        for module in modules
        for name in NOT_ON_THE_SERVE_PATH
        if module == name or module.startswith(name + ".")
    )


@pytest.mark.parametrize("transport", ["stdin", "tcp"])
def test_a_served_stream_imports_the_serve_path_only(transport, tmp_path):
    answers, modules = serve(transport, lines=FEED + QUERIES, tmp_path=tmp_path)
    assert "repro.serve.service" in modules and "repro.core.dpd" in modules
    assert off_the_serve_path(modules) == []
    answers = answers.splitlines()
    assert len(answers) == 1 + 2 * 4 + 1  # flush, predict + expects per receiver, stats
    assert '"known":true' in answers[1] and '"known":false' in answers[-3]

    # The same traffic snapshotted, then restored: the same answers, byte for
    # byte, and neither writing nor reading the snapshot leaves the serve path.
    snapshot = tmp_path / "snap"
    again, modules = serve(
        transport, "--snapshot-dir", str(snapshot), lines=FEED + QUERIES, tmp_path=tmp_path
    )
    assert "repro.serve.snapshot" in modules and "repro.util.digest" in modules
    assert off_the_serve_path(modules) == []
    assert again.splitlines() == answers
    restored, modules = serve(
        transport, "--restore", str(snapshot), lines=QUERIES, tmp_path=tmp_path
    )
    assert "repro.predictive.state" in modules
    assert off_the_serve_path(modules) == []
    assert restored.splitlines() == answers[1:]


def loaded_by(code: str, stdlib: bool = False) -> list[str]:
    """The ``repro`` and numpy modules a fresh interpreter holds after ``code``;
    with ``stdlib``, every module it holds."""
    code += "\nimport sys; print(*sorted(sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )  # fmt: skip
    modules = done.stdout.split()
    return modules if stdlib else [m for m in modules if m[:5] in ("repro", "numpy")]


def test_building_the_cli_parser_imports_no_command():
    modules = loaded_by("from repro.cli import build_parser; build_parser()")
    assert "repro.cli" in modules
    commands = ("repro.serve", "repro.scenario", "repro.core", "repro.predictive")
    assert [m for m in modules if m.startswith(NOT_ON_THE_SERVE_PATH + commands)] == []


# ----------------------------------------------------------------------
# The simulation path
# ----------------------------------------------------------------------
#: Modules a single simulation never loads: the sweep runner with its process
#: pool and logging, the offline scorer, stream summaries and trace readers.
NOT_ON_THE_SIMULATION_PATH = (
    "repro.scenario.sweep",
    "repro.core.evaluation",
    "repro.trace.streams",
    "repro.trace.io",
    "repro.trace.import_dumpi",
    "multiprocessing",
    "concurrent.futures",
    "logging",
    "socket",
    "tomllib",
)

SIMULATE_A_PAPER_CELL = """
from repro.analysis.experiments import configuration_spec
from repro.scenario import Scenario
from repro.workloads.compile import compile_info
from repro.workloads.registry import PaperConfiguration

spec = configuration_spec(PaperConfiguration(workload="bt", nprocs=9, scale=0.05))
workload = spec.workload.build()
spec.machine.build(), spec.network.build(spec.seed), spec.policy.build()
assert all(compile_info(workload, rank)["compiled"] for rank in range(9))
assert Scenario(spec).run().result.events_processed > 0
"""


def test_a_compiled_paper_cell_loads_no_sweep_scorer_or_trace_reader():
    modules = loaded_by(SIMULATE_A_PAPER_CELL, stdlib=True)
    assert "repro.sim.engine" in modules and "repro.workloads.compile" in modules
    assert [m for m in NOT_ON_THE_SIMULATION_PATH if m in modules] == []


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
