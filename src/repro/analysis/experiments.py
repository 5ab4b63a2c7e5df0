"""Experiment context: memoised simulation runs for the paper's configurations.

The 19 cells of the paper's evaluation (one workload at one process count)
are expressed as a canonical :class:`~repro.scenario.sweep.Sweep` of
:class:`~repro.scenario.spec.ScenarioSpec` cells — the same declarative form
any user sweep takes — and run through the scenario engine.  The context adds
what the analysis layer needs on top: per-cell memoisation — Table 1 and every
figure read the same cached :class:`~repro.scenario.scenario.ScenarioResult`.

Every cell is an independent simulation, so :meth:`ExperimentContext.run_all`
with ``jobs > 1`` shards the uncached cells over a process pool via
:meth:`Sweep.run_all`.  Each worker runs the exact same (workload, seed,
network) recipe a sequential run would, so the merged results — traces,
statistics, makespans — are bit-identical to a sequential :meth:`run_all`;
only the wall-clock time changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.scenario.scenario import Scenario, ScenarioResult
from repro.scenario.spec import NetworkSpec, ScenarioSpec, WorkloadSpec
from repro.sim.network import NetworkConfig
from repro.workloads.registry import PaperConfiguration, paper_configurations

if TYPE_CHECKING:  # pragma: no cover - typing only
    # The sweep runner (and its process pool) is imported only where a sweep
    # is built: a single simulation never loads it.
    from repro.scenario.sweep import Sweep

__all__ = [
    "ExperimentContext",
    "configuration_spec",
    "paper_sweep",
]


def configuration_spec(
    configuration: PaperConfiguration,
    seed: int = 2003,
    network: NetworkConfig | None = None,
) -> ScenarioSpec:
    """The :class:`ScenarioSpec` of one paper configuration cell.

    This is *the* recipe of the paper's evaluation: the registry workload at
    the cell's process count and scale, default machine, and the standard
    jittered network deriving its seed from the experiment seed (unless a
    network configuration is passed).
    """
    return ScenarioSpec(
        workload=WorkloadSpec(
            name=configuration.workload,
            nprocs=configuration.nprocs,
            scale=configuration.scale,
        ),
        seed=seed,
        network=NetworkSpec() if network is None else NetworkSpec.from_config(network),
        name=configuration.label,
    )


def paper_sweep(
    seed: int = 2003,
    scale: float | None = None,
    network: NetworkConfig | None = None,
) -> Sweep:
    """The paper's full 19-cell evaluation as a canonical :class:`Sweep`.

    ``Sweep.run_all()`` over this is bit-identical to
    :meth:`ExperimentContext.run_all` (which delegates to the same cells).
    """
    from repro.scenario.sweep import Sweep

    return Sweep(
        cells=[
            configuration_spec(configuration, seed=seed, network=network)
            for configuration in paper_configurations(scale=scale)
        ],
        name="paper-table1",
    )


@dataclass
class ExperimentContext:
    """Runs and caches the simulations behind Table 1 and Figures 1-4.

    Parameters
    ----------
    seed:
        Base seed for all simulations (per-rank and network streams are
        derived from it).
    scale:
        Optional global override of the per-application run scale.  ``None``
        uses the registry defaults (class-A-like volumes, LU reduced); small
        values such as ``0.05`` give quick smoke runs for tests.
    network:
        Optional network configuration override applied to every cell.
    """

    seed: int = 2003
    scale: float | None = None
    network: NetworkConfig | None = None
    _cache: dict[tuple[str, int], ScenarioResult] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    def configurations(self) -> list[PaperConfiguration]:
        """The 19 paper configurations at this context's scale."""
        return paper_configurations(scale=self.scale)

    def spec_for(self, configuration: PaperConfiguration) -> ScenarioSpec:
        """The scenario spec this context would run for ``configuration``."""
        return configuration_spec(configuration, seed=self.seed, network=self.network)

    def sweep(self) -> Sweep:
        """This context's 19 cells as a canonical :class:`Sweep`."""
        return paper_sweep(seed=self.seed, scale=self.scale, network=self.network)

    def run(self, configuration: PaperConfiguration) -> ScenarioResult:
        """Run (or fetch from cache) one configuration."""
        key = (configuration.workload, configuration.nprocs)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._cache[key] = Scenario(self.spec_for(configuration)).run()
        return cached

    def run_named(self, workload: str, nprocs: int) -> ScenarioResult:
        """Run (or fetch) a configuration identified by name and size."""
        for configuration in self.configurations():
            if configuration.workload == workload and configuration.nprocs == nprocs:
                return self.run(configuration)
        # Not one of the 19 paper cells: build an ad-hoc configuration.
        scale = self.scale if self.scale is not None else 1.0
        return self.run(PaperConfiguration(workload=workload, nprocs=nprocs, scale=scale))

    def run_all(self, jobs: int | None = None) -> list[ScenarioResult]:
        """Run every paper configuration (cached) and return them in order.

        Parameters
        ----------
        jobs:
            ``None`` or ``1`` runs the cells sequentially in this process.
            ``jobs > 1`` shards the *uncached* cells over a process pool of
            that many workers (via :meth:`Sweep.run_all`); the
            :class:`ScenarioResult` objects it returns are cached as they are
            and are bit-identical to a sequential run (each cell derives all
            its randomness from the context seed).
        """
        configurations = self.configurations()
        if jobs is not None and jobs > 1:
            pending = [
                configuration
                for configuration in configurations
                if (configuration.workload, configuration.nprocs) not in self._cache
            ]
            if pending:
                from repro.scenario.sweep import Sweep

                sweep = Sweep(
                    cells=[self.spec_for(configuration) for configuration in pending],
                    name="paper-table1-pending",
                )
                for configuration, cell in zip(pending, sweep.run_all(jobs=jobs)):
                    if not isinstance(cell, ScenarioResult):
                        # Paper cells are deterministic and must all succeed;
                        # surface an isolated failure instead of caching it.
                        raise RuntimeError(
                            f"paper cell {configuration.label} failed: "
                            f"{cell.error_type}: {cell.error_message}"
                        )
                    self._cache[(configuration.workload, configuration.nprocs)] = cell
        return [self.run(configuration) for configuration in configurations]

    def clear(self) -> None:
        """Drop all cached runs."""
        self._cache.clear()
