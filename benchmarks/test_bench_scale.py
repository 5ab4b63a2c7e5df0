"""Engine scaling rows: the ``scalar`` and ``auto`` drains, in-process and
partitioned, at 64 to 16,384 ranks.

No ``bench/run.py`` workload reaches 1,024 ranks or partitions its ranks
(``engine_jobs`` of 2 and up), so these rows are the one place that times
them.  They are not part of the bare
``pytest`` run (the root ``conftest.py`` ignores ``benchmarks/``); run them
explicitly, e.g. ``python -m pytest benchmarks/test_bench_scale.py -k "not
4096 and not 16384" --benchmark-json=FILE``.  The frozen ``BENCH_scale.json``
holds the rows recorded by the retired microbenchmark suite they came from,
under the engine names of the day: ``vectorised`` is today's ``auto``, and
``parallel`` is ``auto`` with ``engine_jobs=4``.
"""

from __future__ import annotations

import os

import pytest

from repro.sim.engine import Simulator
from repro.workloads.registry import create_workload


def _record_row(benchmark, info: dict, **per_second) -> None:
    """Attach ``info`` to the row, with wall time and rates when it was timed.

    ``per_second`` maps a rate field to the count it divides by the mean wall
    time.  Under ``--benchmark-disable`` the body runs once untimed and
    ``benchmark.stats`` is None, so only the time-free fields are recorded.
    """
    if benchmark.stats is not None:
        mean = benchmark.stats.stats.mean
        info["wall_s"] = round(mean, 4)
        for name, count in per_second.items():
            info[name] = round(count / mean, 1)
    benchmark.extra_info.update(info)


def _scale_workload(name: str, nprocs: int):
    """Scaling-curve workload: iterations pinned so every size is tractable."""
    return create_workload(
        name, nprocs, iterations=_SCALE_ITERATIONS[nprocs], compute_noise=0.0
    )


def _scale_run(name: str, nprocs: int, engine: str):
    from repro.analysis.scaling import lockstep_scale_configs

    machine, network = lockstep_scale_configs()
    workload = _scale_workload(name, nprocs)
    return Simulator(
        workload.nprocs,
        seed=2003,
        machine=machine,
        network=network,
        tracer=False,
        engine=engine,
    ).run([workload.program_for])


#: Iterations per job size: enough work to time reliably at 64 ranks without
#: making the 4096-rank rows (millions of events per iteration) take minutes.
_SCALE_ITERATIONS = {64: 8, 256: 4, 1024: 1, 4096: 1, 16384: 1}


def _partitioned_scale_run(name: str, nprocs: int, engine_jobs: int):
    from repro.analysis.scaling import partitioned_scale_configs

    machine, network = partitioned_scale_configs()
    workload = _scale_workload(name, nprocs)
    return Simulator(
        workload.nprocs,
        seed=2003,
        machine=machine,
        network=network,
        tracer=False,
        engine_jobs=engine_jobs,
    ).run([workload.program_for])


class TestScaleMicrobenchmarks:
    """Engine scaling curves (``-k scale`` selects these).

    The frozen ``BENCH_scale.json`` holds this suite's recorded history
    (``--benchmark-json=FILE`` times it today): bt/lu/sweep3d under the
    scalar event loop versus the ``auto`` cohort drain at 64 to 4096
    ranks, under :func:`repro.analysis.scaling.lockstep_scale_configs` (an
    ideal network keeps rank clocks in lockstep so timestamp cohorts stay as
    wide as the job — the regime the cohort dispatch is built for).

    Each benchmark records the processed event count and the events/second
    rate in ``extra_info``, so the scalar-vs-auto throughput ratio per
    (workload, nprocs) cell can be read straight out of ``BENCH_scale.json``.
    CI runs only the small-rank rows, untimed (``-k "scale and not 4096 and
    not 16384 and not (curve and 1024)"``); the full curves were produced
    locally.

    The two engines produce bit-identical results by construction — that
    invariant is enforced by ``tests/test_engine_vectorised.py``, not here.
    """

    @pytest.mark.parametrize("engine", ["scalar", "auto"])
    @pytest.mark.parametrize("nprocs", [64, 256, 1024, 4096])
    @pytest.mark.parametrize("workload", ["bt", "lu", "sweep3d"])
    def test_bench_scale_curve(self, benchmark, workload, nprocs, engine):
        from repro.workloads.compile import compile_rank_lanes

        # Prime the schedule cache so neither engine's round pays the one-off
        # compile cost (the cache is keyed by configuration and shared by the
        # scalar and auto tests of the same cell).
        primed = _scale_workload(workload, nprocs)
        for rank in range(primed.nprocs):
            compile_rank_lanes(primed, rank)

        def simulate():
            return _scale_run(workload, nprocs, engine)

        rounds = 2 if nprocs <= 256 else 1
        result = benchmark.pedantic(simulate, rounds=rounds, iterations=1)
        assert result.events_processed > 0
        assert result.makespan > 0
        _record_row(
            benchmark,
            {
                "workload": workload,
                "nprocs": nprocs,
                "engine": engine,
                "iterations": _SCALE_ITERATIONS[nprocs],
                "events": result.events_processed,
            },
            events_per_sec=result.events_processed,
        )

    @pytest.mark.parametrize("engine_jobs", [1, 4])
    @pytest.mark.parametrize("nprocs", [1024, 4096, 16384])
    def test_bench_scale_parallel(self, benchmark, nprocs, engine_jobs):
        """Four conservative partitions vs the in-process ``auto`` drain.

        Runs under :func:`repro.analysis.scaling.partitioned_scale_configs`
        (noiseless 2 µs latency: near-lockstep cohorts *and* a positive
        lookahead for the conservative windows) on lockstep bt, with
        ``engine_jobs=4`` worker processes or in-process.  Both are measured
        on the same configuration so the throughput ratio of a row pair reads
        straight out of ``BENCH_scale.json``.  On a single-CPU host the
        workers time-share one core, so the partitioned rows measure the
        window/barrier protocol overhead rather than concurrency — the
        ``note`` field of the committed artefact records the measuring
        host's core count.

        The 16384-rank rows hold ~5 GB resident and run for minutes, so
        they only run when ``REPRO_SCALE_XL`` is set; other runs, CI's
        included, skip them.
        """
        from repro.workloads.compile import compile_rank_lanes

        if nprocs >= 16384 and not os.environ.get("REPRO_SCALE_XL"):
            pytest.skip("16384-rank rows need REPRO_SCALE_XL=1 (~5 GB resident)")

        primed = _scale_workload("bt", nprocs)
        for rank in range(primed.nprocs):
            compile_rank_lanes(primed, rank)

        def simulate():
            return _partitioned_scale_run("bt", nprocs, engine_jobs)

        result = benchmark.pedantic(simulate, rounds=1, iterations=1)
        assert result.events_processed > 0
        if engine_jobs > 1:
            info = result.parallel_info
            assert info is not None and "fallback" not in info, info
            assert info["partitions"] == engine_jobs
        _record_row(
            benchmark,
            {
                "workload": "bt",
                "nprocs": nprocs,
                "engine": "auto",
                "engine_jobs": engine_jobs,
                "iterations": _SCALE_ITERATIONS[nprocs],
                "events": result.events_processed,
            },
            events_per_sec=result.events_processed,
        )
