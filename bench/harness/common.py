"""Paths, the failure type, host facts and process-memory readings."""

from __future__ import annotations

import os
import platform
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_PY = BENCH_DIR / "run.py"
#: Everything the benchmark writes (results, trace files, snapshots) goes here.
OUT = BENCH_DIR / "out"


class BenchFailure(RuntimeError):
    """The benchmark could not produce a result (exit code 1, no result line)."""


def child_env() -> dict:
    """Environment of a process under test: ``repro`` importable from ``src/``."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def child_cpu() -> int | None:
    """The CPU the process under test is pinned to: the last one allowed, if there are two.

    Pinned, it is not moved between CPUs mid-run, and the harness can read
    the host's speed where it runs.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[-1] if len(cpus) > 1 else None


def pin(pid: int) -> None:
    """Pin a just-spawned process under test to :func:`child_cpu`."""
    if child_cpu() is not None:
        os.sched_setaffinity(pid, {child_cpu()})


@contextmanager
def scratch_dir(tag: str) -> Iterator[Path]:
    """A fresh directory under ``bench/out/tmp`` (inside the checkout), removed on exit."""
    path = OUT / "tmp" / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def proc_status_kb(pid: int, field: str) -> int:
    """``VmRSS`` / ``VmHWM`` of a live process, in KB, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise BenchFailure(f"/proc/{pid}/status has no {field}")


def proc_minor_faults(pid: int) -> int:
    """Minor page faults of a live process so far (``minflt`` of ``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        return int(handle.read().rsplit(")", 1)[1].split()[7])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_info() -> dict:
    """What a reader needs to judge whether two result files are comparable."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
        "loadavg_1m_start": os.getloadavg()[0],
    }
