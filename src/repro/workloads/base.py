"""Base class shared by all workload skeletons.

A workload describes one rank program in two interchangeable forms:

* :meth:`Workload.program` — the **generator protocol**: a Python generator
  yielding :mod:`repro.mpi.ops` operations, resumed by the engine with each
  operation's result.  This is the fully general form and the single source
  of truth for a workload's communication schedule.
* :meth:`Workload.compile_program` — the **op-array fast lane**: for
  statically scheduled workloads the program is replayed once at compile
  time (:mod:`repro.workloads.compile`) into flat typed op lanes that the
  engine consumes without per-op generator resumption.  Simulation outputs
  are bit-identical between the two forms; workloads whose schedule is
  data-dependent (:attr:`Workload.compile_supported` False, direct
  ``ctx.rng`` draws, result-dependent control flow) simply keep the
  generator protocol.

:meth:`Workload.program_for` — the factory :class:`repro.scenario.Scenario`
hands to the engine — prefers the fast lane and falls back to the generator
per rank automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.mpi.communicator import RankContext
from repro.mpi.ops import CompiledProgram, ComputeOp, Operation
from repro.util.validation import check_non_negative, check_positive

__all__ = ["Workload", "WorkloadDescription"]


@dataclass(frozen=True)
class WorkloadDescription:
    """Static description of a workload instance (used by Table 1 and docs)."""

    name: str
    nprocs: int
    iterations: int
    scale: float
    representative_rank: int
    parameters: dict


class Workload:
    """A communication skeleton that can be run on the simulator.

    Subclasses must define :attr:`name`, :attr:`paper_process_counts`,
    :meth:`default_iterations` and :meth:`program`.

    Parameters
    ----------
    nprocs:
        Number of ranks.
    scale:
        Fraction of the paper-scale iteration count to run (1.0 = class-A-like
        message volumes).  Iteration counts are rounded up so even tiny scales
        execute at least one iteration.
    iterations:
        Explicit iteration count; overrides ``scale`` when given.
    compute_time:
        Mean virtual computation time (seconds) inserted between communication
        phases.
    compute_noise:
        Log-normal sigma of the per-phase compute-time noise.  Compute noise
        de-synchronises ranks and is one of the two sources (with network
        jitter) of physical-stream reordering.
    """

    #: Workload name used by the registry and the analysis tables.
    name: str = "abstract"
    #: Process counts the paper's Table 1 reports for this application.
    paper_process_counts: tuple[int, ...] = ()
    #: When True, :meth:`compute` prefetches compute-noise factors from
    #: ``ctx.rng`` in blocks (sequence-identical to per-call draws, but
    #: without the per-call numpy overhead).  Workload programs that draw
    #: from ``ctx.rng`` directly must set this False, otherwise the prefetch
    #: would reorder their draws relative to the noise stream.  The op-array
    #: fast lane additionally requires this flag: compiled schedules draw
    #: their noise factors in the same prefetch blocks at execution time, so
    #: a program with interleaved direct draws cannot be compiled without
    #: reordering its RNG stream (see :mod:`repro.workloads.compile`).
    prefetch_compute_noise: bool = True
    #: Whether this workload's schedule may be precompiled into op arrays.
    #: True means "attempt it" — compilation still falls back to the
    #: generator protocol per rank if the replay finds dynamic behaviour.
    #: Subclasses whose op sequence is data-dependent set this False to
    #: skip the (then pointless) compile replay entirely.
    compile_supported: bool = True

    #: Block size for the compute-noise prefetch.
    _NOISE_BLOCK = 128

    def __init__(
        self,
        nprocs: int,
        scale: float = 1.0,
        iterations: int | None = None,
        compute_time: float = 20.0e-6,
        compute_noise: float = 0.05,
    ) -> None:
        check_positive("nprocs", nprocs)
        check_positive("scale", scale)
        check_non_negative("compute_time", compute_time)
        check_non_negative("compute_noise", compute_noise)
        self.nprocs = int(nprocs)
        self.scale = float(scale)
        self.compute_time = float(compute_time)
        self.compute_noise = float(compute_noise)
        if iterations is None:
            iterations = max(1, round(self.default_iterations() * self.scale))
        check_positive("iterations", iterations)
        self.iterations = int(iterations)
        self.validate()

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------
    def default_iterations(self) -> int:
        """Paper-scale (class A) iteration count."""
        raise NotImplementedError

    def program(self, ctx: RankContext) -> Generator[Operation, object, None]:
        """The rank program (a generator of MPI operations)."""
        raise NotImplementedError

    def compile_program(self, ctx: RankContext) -> CompiledProgram | None:
        """This rank's schedule as a precompiled op array, if it has one.

        Returns ``None`` when the rank must run under the generator
        protocol (``compile_supported`` is False, the program draws from
        ``ctx.rng`` outside the compute-noise prefetch, or its op sequence
        depends on operation results).  See :mod:`repro.workloads.compile`.
        """
        from repro.workloads.compile import compile_program

        return compile_program(self, ctx)

    def program_for(self, ctx: RankContext):
        """The fastest available program form for ``ctx``'s rank.

        A :class:`CompiledProgram` when the schedule compiles, otherwise the
        plain program generator.  This is the factory
        :class:`repro.scenario.Scenario` hands to the engine.
        """
        return self.compile_program(ctx) or self.program(ctx)

    def schedule_cache_key(self) -> tuple | None:
        """Hashable key identifying this instance's compiled schedule.

        Two instances with equal keys must produce identical op sequences
        for every rank; the compile cache relies on it.  The default key
        covers the structural knobs (type, size, iterations, the base
        compute time baked into the lanes) plus :meth:`parameters`, which by
        contract captures every workload-specific schedule input.  Return
        ``None`` to disable caching for this instance.
        """
        try:
            params = repr(sorted(self.parameters().items()))
        except Exception:
            return None
        return (
            type(self).__module__,
            type(self).__qualname__,
            self.nprocs,
            self.iterations,
            self.compute_time,
            params,
        )

    def validate(self) -> None:
        """Check that ``nprocs`` (and other parameters) are legal."""

    def representative_rank(self) -> int:
        """The receiving rank whose streams the analysis reports by default.

        The paper reports streams "received by a process"; for BT it shows
        process 3.  Subclasses override this to pick a rank whose neighbour
        count matches the paper's Table 1 row.
        """
        return min(3, self.nprocs - 1)

    def parameters(self) -> dict:
        """Extra workload-specific parameters.

        Besides feeding Table 1 and :meth:`describe`, this is part of the
        schedule-cache contract: :meth:`schedule_cache_key` includes it, so
        subclasses must report **every constructor knob that affects the op
        sequence** (message sizes, patterns, block counts, ...) here —
        omitting one lets two differently-configured instances share cached
        op lanes.  Subclasses that cannot meet this contract should override
        :meth:`schedule_cache_key` (returning ``None`` disables caching).
        """
        return {}

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    def compute(self, ctx: RankContext, units: float = 1.0) -> ComputeOp:
        """A compute phase of ``units`` times the base compute time, with noise."""
        base = self.compute_time * units
        sigma = self.compute_noise
        if not self.prefetch_compute_noise:
            return ComputeOp(base * ctx.rng.lognormal_factor(sigma))
        try:
            factor = next(ctx.params["_noise_iter"])
        except (KeyError, StopIteration):
            block = ctx.rng.lognormal_block(sigma, self._NOISE_BLOCK)
            ctx.params["_noise_iter"] = noise = iter(block)
            factor = next(noise)
        return ComputeOp(base * factor)

    def describe(self) -> WorkloadDescription:
        """Return the static description of this instance."""
        return WorkloadDescription(
            name=self.name,
            nprocs=self.nprocs,
            iterations=self.iterations,
            scale=self.scale,
            representative_rank=self.representative_rank(),
            parameters=self.parameters(),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(nprocs={self.nprocs}, iterations={self.iterations}, "
            f"scale={self.scale})"
        )
