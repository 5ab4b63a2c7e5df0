"""Repository-level pytest configuration.

Makes the ``src`` layout importable even when the package has not been
installed (e.g. running ``pytest`` straight from a fresh checkout in an
offline environment where ``pip install -e .`` is unavailable).

A bare ``pytest`` run is the correctness gate: ``tests/`` and ``bench/``.
The suites under ``benchmarks/`` rewrite ``benchmarks/results/`` (the paper
artefacts) or run for minutes (the engine scaling rows), so they run only
when named, e.g. ``pytest benchmarks``.
"""

import pathlib
import sys

collect_ignore = ["benchmarks"]

_SRC = pathlib.Path(__file__).resolve().parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(_SRC))
