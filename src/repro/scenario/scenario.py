"""The ``spec -> run -> result`` facade.

:class:`Scenario` turns a :class:`~repro.scenario.spec.ScenarioSpec` into a
configured :class:`~repro.sim.engine.Simulator`, runs it, and wraps the
outcome in a :class:`ScenarioResult` whose stream/summary/prediction
accessors are lazy and cached — analysis code asks for what it needs and the
result computes it once.

The build recipe is one fixed sequence: workload via the registry,
machine/network via their presets, network seed derived from the scenario
seed unless pinned.  That is what makes the paper's 19-cell sweep
bit-identical whether it runs through a bare ``Simulator``, a
:class:`Scenario`, or a sharded :meth:`repro.scenario.sweep.Sweep.run_all`.

A scenario is built from *names* only.  Callers that already hold concrete
objects (a ``Workload`` instance, a warmed ``NetworkModel``, a policy they
inspect afterwards, a custom tracer) construct a
:class:`~repro.sim.engine.Simulator` themselves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.scenario.spec import ScenarioSpec
from repro.sim.engine import SimulationResult, Simulator
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    # The offline scorer and the stream summaries are imported by the
    # accessors that use them: running a scenario never loads either.
    from repro.core.evaluation import AccuracyResult
    from repro.trace.streams import StreamSummary
    from repro.trace.tracer import ProcessTrace

__all__ = ["Scenario", "ScenarioResult"]

class Scenario:
    """A runnable scenario: every component is built from the spec.

    Parameters
    ----------
    spec:
        A :class:`ScenarioSpec` (or anything :meth:`ScenarioSpec.coerce`
        accepts: a dict, a workload shorthand string, a workload spec).
    """

    def __init__(self, spec) -> None:
        self.spec = ScenarioSpec.coerce(spec)

    @classmethod
    def from_file(cls, path) -> "Scenario":
        """Load a scenario from a TOML spec file."""
        return cls(ScenarioSpec.from_toml(path))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Scenario({self.spec.label!r}, seed={self.spec.seed})"

    # ------------------------------------------------------------------
    def run(self) -> "ScenarioResult":
        """Run the scenario and return its :class:`ScenarioResult`.

        Saves traces to ``spec.trace.path`` when one is set.
        """
        spec = self.spec
        workload = spec.workload.build()
        simulator = Simulator(
            nprocs=workload.nprocs,
            machine=spec.machine.build(),
            network=spec.network.build(spec.seed),
            tracer=spec.trace.enabled,
            policy=spec.policy.build(),
            seed=spec.seed,
            max_events=spec.max_events,
            max_wall_seconds=spec.max_wall_seconds,
            faults=spec.faults.build(spec.seed),
            engine=spec.engine,
            engine_jobs=spec.engine_jobs,
        )
        factory = workload.program_for if spec.compiled else workload.program
        result = simulator.run([factory])
        scenario_result = ScenarioResult(spec=spec, workload=workload, result=result)
        if spec.trace.path:
            scenario_result.save_traces(spec.trace.path)
        return scenario_result


class ScenarioResult:
    """A finished scenario: the spec, the workload that ran, and the result.

    Stream extraction, summaries and predictor evaluations are lazy and
    memoised per ``(level, rank, ...)`` key; the underlying
    :class:`SimulationResult` stays fully accessible as :attr:`result`.
    """

    def __init__(
        self, spec: ScenarioSpec, workload: Workload, result: SimulationResult
    ) -> None:
        self.spec = spec
        self.workload = workload
        self.result = result
        self._cache: dict[tuple, object] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScenarioResult({self.spec.label!r}, "
            f"messages={self.result.stats.messages_sent}, "
            f"makespan={self.result.makespan:.6g})"
        )

    # -- plain views -------------------------------------------------------
    @property
    def label(self) -> str:
        """The spec's display label."""
        return self.spec.label

    @property
    def makespan(self) -> float:
        """Simulated completion time of the slowest rank."""
        return self.result.makespan

    @property
    def stats(self):
        """The runtime statistics of the simulation."""
        return self.result.stats

    @property
    def representative_rank(self) -> int:
        """The receiving rank the paper's analysis reports for this workload."""
        return self.workload.representative_rank()

    def _resolve_rank(self, rank: int | None) -> int:
        return self.representative_rank if rank is None else rank

    # -- traces and streams ------------------------------------------------
    def trace(self, rank: int | None = None) -> "ProcessTrace":
        """One rank's two-level trace (default: the representative rank)."""
        return self.result.trace_for(self._resolve_rank(rank))

    def records(self, level: str = "logical", rank: int | None = None):
        """One rank's trace records at ``level`` ("logical" or "physical")."""
        trace = self.trace(rank)
        if level == "logical":
            return trace.logical
        if level == "physical":
            return trace.physical
        raise ValueError(f"unknown trace level {level!r}")

    def stream(
        self, kind: str = "sender", level: str = "logical", rank: int | None = None
    ):
        """The (sender | size) message stream of one rank at one level."""
        key = ("stream", kind, level, self._resolve_rank(rank))
        cached = self._cache.get(key)
        if cached is None:
            from repro.trace.streams import sender_stream, size_stream

            records = self.records(level, rank)
            if kind == "sender":
                cached = sender_stream(records)
            elif kind == "size":
                cached = size_stream(records)
            else:
                raise ValueError(f"unknown stream kind {kind!r}")
            self._cache[key] = cached
        return cached

    def summary(
        self, level: str = "logical", rank: int | None = None
    ) -> "StreamSummary":
        """Summary statistics of one rank's stream at one level."""
        key = ("summary", level, self._resolve_rank(rank))
        cached = self._cache.get(key)
        if cached is None:
            from repro.trace.streams import summarize_stream

            cached = self._cache[key] = summarize_stream(self.records(level, rank))
        return cached

    # -- prediction --------------------------------------------------------
    def predict(
        self,
        kind: str = "sender",
        level: str = "logical",
        rank: int | None = None,
        horizon: int | None = None,
        warmup: int = 0,
    ) -> "AccuracyResult":
        """Evaluate the spec's predictor over one stream of this run.

        ``horizon`` defaults to the spec's ``predictor.horizon``.
        """
        if horizon is None:
            horizon = self.spec.predictor.horizon
        key = ("predict", kind, level, self._resolve_rank(rank), horizon, warmup)
        cached = self._cache.get(key)
        if cached is None:
            from repro.core.evaluation import evaluate_stream

            cached = self._cache[key] = evaluate_stream(
                self.stream(kind, level, rank),
                self.spec.predictor.factory(),
                horizon=horizon,
                warmup=warmup,
            )
        return cached

    # -- persistence -------------------------------------------------------
    def save_traces(self, path, metadata: dict | None = None) -> int:
        """Save the run's two-level traces (columnar v2 format).

        The saved metadata records the scenario recipe (workload, nprocs,
        scale, seed, policy, label) and accepts extra keys via ``metadata``.
        """
        from repro.trace.io import save_traces

        if self.result.tracer is None:
            raise ValueError("scenario was run without tracing enabled")
        spec = self.spec
        payload = {
            "workload": spec.workload.name,
            "nprocs": spec.workload.nprocs,
            "scale": spec.workload.scale if spec.workload.scale is not None else 1.0,
            "seed": spec.seed,
            "policy": spec.policy.kind,
            "label": spec.label,
        }
        if metadata:
            payload.update(metadata)
        return save_traces(self.result.tracer, path, metadata=payload)
