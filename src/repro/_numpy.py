"""numpy, imported and version-checked in one place.

numpy is the package's only hard dependency (columnar traces, offline
scoring, the simulator's random draws).  Older releases lack
APIs those kernels use, so this module fails with an actionable message
instead of deep inside one.  Every module that needs numpy takes it from here
(``from repro._numpy import np``): at module level where the whole module is
numpy work, inside the function that uses it where the module is on the
serve path, which starts without numpy (``docs/architecture.md``).
"""

_NUMPY_MIN = (1, 22)
try:
    import numpy as np
except ImportError as _error:  # pragma: no cover - environment-dependent
    raise ImportError(
        "repro requires numpy >= "
        + ".".join(str(part) for part in _NUMPY_MIN)
        + " (install it with 'pip install numpy')"
    ) from _error
if tuple(int(part) for part in np.__version__.split(".")[:2]) < _NUMPY_MIN:
    raise ImportError(
        f"repro requires numpy >= {'.'.join(str(p) for p in _NUMPY_MIN)}, "
        f"found {np.__version__}; upgrade with 'pip install -U numpy'"
    )

__all__ = ["np"]
