"""The sweep engine: expand a spec template into cells and run them all.

A :class:`Sweep` describes a family of scenarios three ways, freely combined:

* ``base`` — a template :class:`~repro.scenario.spec.ScenarioSpec`;
* ``grid`` — an ordered mapping of dotted spec paths to value lists
  (``{"workload.nprocs": [4, 9], "network.overrides.jitter_sigma":
  [0.0, 0.2]}``), expanded as a cartesian product over patched copies of
  ``base``;
* ``cells`` — an explicit list of cells, each either a full spec or a patch
  dict deep-merged over ``base`` (so a cell states only what differs).

Grid paths are checked at construction time by the spec tree itself
(:meth:`ScenarioSpec.check_grid_path` — this module holds no description of
the schema), so a typo (``"network.overrides.jitter_sgima"``) fails
immediately with the nearest valid keys instead of silently materialising a
table nobody reads.

:meth:`Sweep.expand` materialises the cell list in deterministic order (grid
cells first, in row-major product order; explicit cells after).  Every cell
is an independent seeded simulation, so :meth:`Sweep.run_all` with
``jobs > 1`` shards the cells over a :class:`concurrent.futures.ProcessPoolExecutor`
— longest-expected-first submission, results merged back in expansion
order — and is bit-identical to a sequential run, the same contract the
paper-sweep runner has had since the sharded experiment context.

Fault tolerance: each cell runs isolated and once.  A cell that raises — a
worker process dying and a cell blowing its wall-clock budget included —
produces a structured :class:`CellFailure` in the result list (the other
cells still run and return): every cell is a seeded, deterministic
simulation, so a rerun would fail the same way.  The in-process loop, the
shared pool and the single-worker quarantine pools all read an outcome
through one rule (:meth:`_CellRunner.settle`); with an output
directory, finished cells are checkpointed on disk (``cells/<hash>.json``,
keyed by :meth:`ScenarioSpec.content_hash`) so ``resume=True`` re-runs only
the cells without a well-formed checkpoint.  :func:`cell_record` gives the
record of any outcome.  See :doc:`docs/scenarios` for the full
failure-handling contract.

TOML form (``repro sweep my_sweep.toml``)::

    name = "jitter-sweep"

    [base]
    seed = 2003
    workload = "bt.4:scale=0.05"

    [grid]
    "network.overrides.jitter_sigma" = [0.0, 0.2, 0.5]

    [[cells]]
    workload = "cg:nprocs=4,scale=0.05"
    policy = "credit:horizon=5"

A TOML file without ``base``/``grid``/``cells`` keys is read as a single
:class:`ScenarioSpec` and becomes a one-cell sweep.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import tomllib
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro.scenario.scenario import Scenario, ScenarioResult
from repro.scenario.spec import ScenarioSpec

__all__ = [
    "CachedCell",
    "CellFailure",
    "Sweep",
    "SweepAborted",
    "cell_record",
    "sweep_accuracy_table",
]


def _run_cell(spec: ScenarioSpec, timeout: float | None) -> ScenarioResult:
    """Run one cell under an optional wall-clock budget.

    The budget rides on the simulator's own ``max_wall_seconds`` guard, so a
    livelocked cell kills *itself* (with :class:`TimeLimitExceeded`) instead
    of leaving a hung worker process behind — and the guard works the same
    whether the cell runs in-process or in a pool worker.  The returned
    result keeps the caller's original spec so checkpoints and summaries are
    byte-identical with and without a timeout in force.
    """
    run_spec = spec
    if timeout is not None and (
        spec.max_wall_seconds is None or timeout < spec.max_wall_seconds
    ):
        run_spec = spec.with_overrides(max_wall_seconds=timeout)
    result = Scenario(run_spec).run()
    if run_spec is not spec:
        result.spec = spec
    return result


# ----------------------------------------------------------------------
# Cell outcomes
# ----------------------------------------------------------------------
@dataclass
class CellFailure:
    """One cell that did not produce a result.

    Appears in :meth:`Sweep.run_all` output in place of the cell's
    :class:`ScenarioResult`; the other cells are unaffected.  The record is
    deterministic (exception type and message, no wall times), so a summary
    that includes failures is still byte-stable across reruns.
    """

    spec: ScenarioSpec
    error_type: str
    error_message: str

    @property
    def label(self) -> str:
        return self.spec.label

    @property
    def spec_hash(self) -> str:
        return self.spec.content_hash()

    def record(self) -> dict:
        """Deterministic JSON-able form (what ``summary.json`` stores)."""
        return {
            "label": self.label,
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec_hash,
            "error_type": self.error_type,
            "error_message": self.error_message,
        }


@dataclass
class CachedCell:
    """A cell satisfied from the on-disk checkpoint instead of re-running.

    Holds the stored :func:`cell_record` payload; the heavyweight
    :class:`ScenarioResult` (traces, streams) is gone — a resumed sweep
    trades re-simulation for summary-level results on the finished cells.
    """

    spec: ScenarioSpec
    record: dict = field(repr=False)

    @property
    def label(self) -> str:
        return self.spec.label

    @property
    def spec_hash(self) -> str:
        return self.spec.content_hash()


class SweepAborted(RuntimeError):
    """Raised by ``run_all(fail_fast=True)`` on the first cell failure.

    Carries the triggering :class:`CellFailure`; pending cells were cancelled
    and the worker pool was shut down before this was raised.
    """

    def __init__(self, failure: CellFailure) -> None:
        self.failure = failure
        super().__init__(
            f"sweep aborted (fail-fast): cell {failure.label!r} failed with "
            f"{failure.error_type}: {failure.error_message}"
        )


def cell_record(outcome: ScenarioResult | CachedCell | CellFailure) -> dict:
    """Deterministic JSON-able record of one sweep cell, whatever its outcome.

    For a finished cell this is both the per-cell payload of ``repro
    sweep``'s ``summary.json`` and the checkpoint format of the resumable
    manifest (a :class:`CachedCell` answers with the record it was restored
    from).  Traceless runs (``trace.enabled = false``) get ``stream: null``;
    fault-injected runs carry the injector's counters.  A
    :class:`CellFailure` answers with its failure record, the one with an
    ``error_type`` key.
    """
    if isinstance(outcome, CachedCell):
        return outcome.record
    if isinstance(outcome, CellFailure):
        return outcome.record()
    record = {
        "label": outcome.label,
        "spec": outcome.spec.to_dict(),
        "spec_hash": outcome.spec.content_hash(),
        "makespan": outcome.makespan,
        "stats": outcome.stats.summary(),
        "representative_rank": outcome.representative_rank,
    }
    if outcome.result.tracer is not None:
        stream = outcome.summary()
        record["stream"] = {
            "total_messages": stream.total_messages,
            "p2p_messages": stream.p2p_messages,
            "collective_messages": stream.collective_messages,
            "num_distinct_senders": stream.num_distinct_senders,
            "num_distinct_sizes": stream.num_distinct_sizes,
        }
    else:
        record["stream"] = None
    if outcome.result.fault_stats is not None:
        record["fault_stats"] = outcome.result.fault_stats
    return record


# ----------------------------------------------------------------------
# Resumable on-disk manifest
# ----------------------------------------------------------------------
class _Manifest:
    """Content-addressed checkpoint store under ``<out>/cells/``.

    One JSON file per *successful* cell, named by the spec's
    :meth:`~ScenarioSpec.content_hash` — failures are never checkpointed, so
    a resumed sweep re-runs exactly the cells that have not succeeded yet,
    regardless of what changed between invocations.
    """

    #: What every stored record carries; a file without them is not one.
    _RECORD_KEYS = frozenset(
        ("label", "spec", "spec_hash", "makespan", "stats", "stream",
         "representative_rank")
    )

    def __init__(self, out: str | Path) -> None:
        self.dir = Path(out) / "cells"
        self.dir.mkdir(parents=True, exist_ok=True)

    def load(self, spec_hash: str) -> dict | None:
        """The stored record of ``spec_hash``, or ``None`` when the file is
        missing, unreadable, or not this cell's record (the cell re-runs and
        :meth:`store` overwrites it)."""
        path = self.dir / f"{spec_hash}.json"
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if (
            isinstance(payload, dict)
            and payload.get("spec_hash") == spec_hash
            and self._RECORD_KEYS <= payload.keys()
        ):
            return payload
        return None

    def store(self, record: dict) -> None:
        path = self.dir / f"{record['spec_hash']}.json"
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        os.replace(tmp, path)  # atomic: a killed sweep never leaves torn cells


def _set_path(data: dict, path: str, value) -> None:
    """Set ``value`` at a dotted ``path`` inside nested dicts (creating)."""
    keys = [key for key in path.split(".") if key]
    node = data
    for key in keys[:-1]:
        child = node.get(key)
        if child is None:
            child = node[key] = {}
        elif not isinstance(child, dict):
            raise ValueError(
                f"grid path {path!r} descends into non-table value {child!r}"
            )
        node = child
    node[keys[-1]] = value


def _deep_merge(base: dict, patch: Mapping) -> dict:
    """Recursively merge ``patch`` over ``base`` (tables merge, leaves replace)."""
    merged = copy.deepcopy(base)
    for key, value in patch.items():
        if (
            isinstance(value, Mapping)
            and isinstance(merged.get(key), dict)
        ):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value) if isinstance(value, (dict, list)) else value
    return merged


class Sweep:
    """A family of scenario cells expanded from a base spec, a grid, and
    explicit cells.

    Parameters
    ----------
    base:
        Template spec the grid and patch-style cells derive from (anything
        :meth:`ScenarioSpec.coerce` accepts).  Optional when every cell is a
        full spec.
    grid:
        Ordered mapping of dotted spec paths to value lists; expanded as a
        cartesian product over ``base`` in row-major order (first path varies
        slowest).  Paths are validated against the spec schema here, at
        construction.
    cells:
        Explicit cells: full specs, or patch dicts merged over ``base``.
    name:
        Display name of the sweep.
    """

    def __init__(
        self,
        base=None,
        grid: Mapping[str, Sequence] | None = None,
        cells: Sequence | None = None,
        name: str | None = None,
    ) -> None:
        self.base = ScenarioSpec.coerce(base) if base is not None else None
        self.grid = {str(path): list(values) for path, values in (grid or {}).items()}
        self.name = name
        self.cells: list[ScenarioSpec] = []
        for cell in cells or ():
            if isinstance(cell, Mapping) and self.base is not None:
                merged = _deep_merge(self.base.to_dict(), cell)
                self.cells.append(ScenarioSpec.from_dict(merged))
            else:
                self.cells.append(ScenarioSpec.coerce(cell))
        if self.grid and self.base is None:
            raise ValueError("a grid sweep needs a base spec to patch")
        for path, values in self.grid.items():
            ScenarioSpec.check_grid_path(path)
            if not values:
                raise ValueError(f"grid path {path!r} has no values")

    @classmethod
    def from_dict(cls, data: Mapping) -> "Sweep":
        """Build a sweep from its dict (TOML) form.

        A mapping without ``base``/``grid``/``cells`` keys is interpreted as
        a single scenario spec.
        """
        if not any(key in data for key in ("base", "grid", "cells")):
            spec = ScenarioSpec.from_dict(data)
            return cls(cells=[spec], name=spec.name)
        data = dict(data)
        name = data.pop("name", None)
        base = data.pop("base", None)
        grid = data.pop("grid", None)
        cells = data.pop("cells", None)
        if data:
            raise ValueError(
                f"unknown sweep keys {sorted(data)}; expected "
                "name/base/grid/cells (or a bare scenario spec)"
            )
        return cls(base=base, grid=grid, cells=cells, name=name)

    @classmethod
    def from_toml(cls, path: str | Path) -> "Sweep":
        """Load a sweep (or a single scenario) from a TOML file."""
        with Path(path).open("rb") as handle:
            return cls.from_dict(tomllib.load(handle))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Sweep(name={self.name!r}, grid_paths={list(self.grid)}, "
            f"cells={len(self.cells)})"
        )

    # ------------------------------------------------------------------
    def expand(self) -> list[ScenarioSpec]:
        """The concrete cell list, in deterministic order.

        Grid cells come first (row-major cartesian order), explicit cells
        after.  A sweep with neither grid nor cells is just ``[base]``.
        """
        specs: list[ScenarioSpec] = []
        if self.grid:
            base_dict = self.base.to_dict()
            paths = list(self.grid)
            for combo in itertools.product(*(self.grid[path] for path in paths)):
                patched = copy.deepcopy(base_dict)
                for path, value in zip(paths, combo):
                    _set_path(patched, path, value)
                specs.append(ScenarioSpec.from_dict(patched))
        elif self.base is not None and not self.cells:
            specs.append(self.base)
        specs.extend(self.cells)
        trace_paths = [spec.trace.path for spec in specs if spec.trace.path]
        if len(trace_paths) != len(set(trace_paths)):
            # Typically a base trace.path inherited by every expanded cell:
            # sequentially the last cell silently wins, sharded the workers
            # race on one file.  Use `repro sweep --out/--save-traces` (or
            # per-cell paths) instead.
            raise ValueError(
                "multiple sweep cells share a trace save path; give each "
                "cell its own trace.path or save traces after run_all()"
            )
        return specs

    def run_all(
        self,
        jobs: int | None = None,
        *,
        timeout: float | None = None,
        fail_fast: bool = False,
        out: str | Path | None = None,
        resume: bool = False,
        engine: str | None = None,
        engine_jobs: int | None = None,
    ) -> list[ScenarioResult | CachedCell | CellFailure]:
        """Run every cell and return outcomes in :meth:`expand` order.

        ``jobs`` of ``None``/``1`` runs sequentially in-process; ``jobs > 1``
        fans the cells over a process pool (longest-expected-first
        submission, deterministic merge).  Each cell derives all its
        randomness from its own spec, so sharded results are bit-identical
        to sequential ones.

        Cells are isolated and run once: a raising cell — a worker process
        dying (recorded as ``WorkerCrash``) or a cell exceeding ``timeout``
        seconds of wall clock (:class:`~repro.sim.errors.TimeLimitExceeded`)
        included — yields a :class:`CellFailure` in its slot and every other
        cell still runs.  After a worker death the pool is unusable and
        cannot name the culprit, so the cells it left unfinished run in
        *quarantine*: one single-worker pool each, where a crash indicts
        exactly one cell.

        ``out`` checkpoints each successful cell under ``<out>/cells/`` keyed
        by spec content hash; ``resume=True`` (requires ``out``) satisfies
        already-checkpointed cells from disk as :class:`CachedCell` without
        re-running them.  ``fail_fast=True`` cancels pending cells, shuts the
        pool down (no leaked workers), and raises :class:`SweepAborted` on
        the first failure instead of recording it.

        ``engine`` (``"auto"``/``"scalar"``/``"vectorised"``/``"parallel"``)
        overrides the run-loop drain of *every* cell — the A/B switch for
        the vectorised and parallel engines — and ``engine_jobs`` overrides
        the parallel engine's per-cell worker count.  Neither can change
        results (outputs are bit-identical across drains, and the spec
        content hash excludes both), so checkpoints and summaries are
        engine-agnostic.  When parallel cells meet a sharded pool, the pool
        width is capped so ``jobs x engine_jobs`` does not oversubscribe the
        machine's CPUs (a ``RuntimeWarning`` reports the applied cap).
        """
        if resume and out is None:
            raise ValueError("run_all(resume=True) needs an output directory (out=)")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        specs = self.expand()
        if engine is not None:
            specs = [spec.with_overrides(engine=engine) for spec in specs]
        if engine_jobs is not None:
            specs = [spec.with_overrides(engine_jobs=engine_jobs) for spec in specs]
        if not specs:
            return []
        if jobs is not None and jobs > 1:
            cpus = os.cpu_count() or 1
            # engine_jobs == 0 is "auto": the engine resolves it to the CPU
            # count, so the cap must budget for that resolved width.
            widest = max(
                (s.engine_jobs or cpus for s in specs if s.engine == "parallel"),
                default=1,
            )
            if widest > 1 and jobs * widest > cpus:
                capped = max(1, cpus // widest)
                warnings.warn(
                    f"sweep jobs={jobs} x engine_jobs={widest} would "
                    f"oversubscribe {cpus} CPUs; capping the cell pool to "
                    f"{capped} worker(s)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                jobs = capped
        manifest = _Manifest(out) if out is not None else None
        results: list[ScenarioResult | CachedCell | CellFailure | None]
        results = [None] * len(specs)
        pending: list[int] = []
        for index, spec in enumerate(specs):
            cached = manifest.load(spec.content_hash()) if resume else None
            if cached is not None:
                results[index] = CachedCell(spec=spec, record=cached)
            else:
                pending.append(index)

        runner = _CellRunner(
            specs=specs,
            results=results,
            manifest=manifest,
            timeout=timeout,
            fail_fast=fail_fast,
        )
        if jobs is None or jobs <= 1 or len(pending) <= 1:
            runner.run_sequential(pending)
        else:
            runner.run_pooled(pending, jobs)
        return results  # type: ignore[return-value]


@dataclass
class _CellRunner:
    """Shared state of one :meth:`Sweep.run_all` invocation.

    Every route a cell can run by — in-process, a shared pool, a
    single-worker quarantine pool — reads its outcome through
    :meth:`settle`, so the rule is written once.
    """

    specs: list[ScenarioSpec]
    results: list
    manifest: _Manifest | None
    timeout: float | None
    fail_fast: bool

    def settle(self, index: int, outcome) -> None:
        """Record cell ``index``'s result, read by calling ``outcome()``, or
        its :class:`CellFailure`."""
        try:
            result = outcome()
        except BrokenProcessPool:
            failure = CellFailure(
                self.specs[index],
                "WorkerCrash",
                "worker process died while running this cell (killed or crashed hard)",
            )
        except Exception as error:
            failure = CellFailure(self.specs[index], type(error).__name__, str(error))
        else:
            self.results[index] = result
            if self.manifest is not None:
                self.manifest.store(cell_record(result))
            return
        if self.fail_fast:
            raise SweepAborted(failure)
        self.results[index] = failure

    def run_sequential(self, pending: list[int]) -> None:
        for index in pending:
            self.settle(index, lambda: _run_cell(self.specs[index], self.timeout))

    def run_pooled(self, pending: list[int], jobs: int) -> None:
        """One shared pool until a worker dies, then quarantine.

        A broken pool cannot name the cell that killed its worker, so the
        cells it left unfinished run one single-worker pool each, where a
        death indicts exactly one cell.
        """
        for index in self._pool_round(pending, jobs):
            with ProcessPoolExecutor(max_workers=1) as solo:
                self.settle(index, solo.submit(_run_cell, self.specs[index], self.timeout).result)

    def _pool_round(self, pending: list[int], jobs: int) -> list[int]:
        """One shared-pool pass over ``pending`` (submitted longest-expected
        first); returns the cells a worker death left unfinished.

        A death charges nobody: the cells that had finished are settled, and
        every other one goes to quarantine.
        """
        by_cost = sorted(
            pending, key=lambda index: self.specs[index].cost_hint(), reverse=True
        )
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(pending)))
        try:
            futures = {
                index: pool.submit(_run_cell, self.specs[index], self.timeout)
                for index in by_cost
            }
            for position, index in enumerate(pending):
                if isinstance(futures[index].exception(), BrokenProcessPool):
                    unfinished = []
                    for survivor in pending[position:]:
                        future = futures[survivor]
                        if future.done() and not isinstance(
                            future.exception(), BrokenProcessPool
                        ):
                            self.settle(survivor, future.result)
                        else:
                            unfinished.append(survivor)
                    return unfinished
                self.settle(index, futures[index].result)
            return []
        finally:
            # Covers the fail-fast SweepAborted path too: futures that never
            # started are cancelled, running workers drain, nothing leaks.
            pool.shutdown(wait=True, cancel_futures=True)


def sweep_accuracy_table(
    outcomes: Sequence,
    kind: str = "sender",
    level: str = "logical",
    warmup: int = 0,
) -> list[dict]:
    """Cross-cell predictor accuracy over a finished sweep.

    Takes the outcome list of :meth:`Sweep.run_all` and evaluates each
    finished cell's predictor (the spec's own ``predictor`` configuration)
    over the representative rank's ``kind`` stream at ``level`` via
    :meth:`~repro.scenario.scenario.ScenarioResult.predict`.  Returns one
    row dict per cell, in sweep order::

        {"cell": 0, "label": "bt.4", "policy": "standard",
         "workload": "bt", "nprocs": 4, "rank": 2, "status": "ok",
         "stream_length": 123,
         "accuracy_pct": [93.5, ...],   # one entry per horizon, +1 first
         "coverage_pct": 97.1}          # fraction of +1 positions predicted

    Cells that produced no evaluable stream keep their slot with a non-"ok"
    status and ``None`` metrics: failures ("failed"), cache hits restored
    from disk without traces ("cached"), and cells run with tracing disabled
    ("untraced").
    """
    rows: list[dict] = []
    for index, outcome in enumerate(outcomes):
        spec = outcome.spec
        row = {
            "cell": index,
            "label": spec.label,
            "policy": spec.policy.kind,
            "workload": spec.workload.name,
            "nprocs": spec.workload.nprocs,
            "rank": None,
            "status": "ok",
            "stream_length": None,
            "accuracy_pct": None,
            "coverage_pct": None,
        }
        if isinstance(outcome, CellFailure):
            row["status"] = "failed"
        elif isinstance(outcome, CachedCell):
            row["status"] = "cached"
        elif outcome.result.tracer is None:
            row["status"] = "untraced"
        else:
            accuracy = outcome.predict(kind=kind, level=level, warmup=warmup)
            row["rank"] = outcome.representative_rank
            row["stream_length"] = accuracy.stream_length
            row["accuracy_pct"] = [round(a, 2) for a in accuracy.as_percentages()]
            row["coverage_pct"] = round(100.0 * accuracy.coverage(1), 2)
        rows.append(row)
    return rows
