"""Package metadata.

This ``setup.py`` is the single source of packaging truth for the project
(there is intentionally no ``pyproject.toml``: the reproduction targets
environments whose pip/setuptools may predate PEP 660 editable installs).

The only hard runtime dependency is numpy — the columnar trace plane, the
offline predictor evaluation and the simulator's random draws use it.  The
simulator itself (``repro/sim``) reaches numpy only through
``repro.util.rng.SeededRNG``, and the serve path starts without it.  The
minimum version is asserted a second time at import, in ``repro/_numpy.py``
(the one module that imports numpy), so a too-old environment fails with a
clear message rather than deep inside a kernel.
"""

from setuptools import find_packages, setup

setup(
    name="repro-mpi-predictability",
    version="1.0.0",
    description=(
        "Reproduction of 'Exploring the Predictability of MPI Messages' "
        "(Freitag et al., IPDPS 2003)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.22"],
    extras_require={
        "dev": ["pytest", "pytest-benchmark", "hypothesis"],
    },
)
