"""Utility helpers shared across the :mod:`repro` package.

The utilities are intentionally dependency-light: a seeded random number
helper, ASCII table / bar-chart rendering used by the analysis layer (the
paper's figures are reproduced as data plus text renderings, no matplotlib),
and small validation helpers used at public API boundaries.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    [
        "rng.SeededRNG",
        "rng.derive_seed",
        "rng.spawn_rng",
        "text.ascii_table",
        "text.ascii_bar_chart",
        "text.format_float",
        "text.wrap_title",
        "validation.check_positive",
        "validation.check_non_negative",
        "validation.check_probability",
        "validation.check_rank",
        "validation.check_type",
    ],
)
