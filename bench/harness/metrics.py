"""The benchmark's vocabulary — workloads, metrics, bounds — and its statistics.

``BENCHMARK.json`` at the repo root states the same names for the driver;
``test_harness.py`` checks the two agree in both directions.

Three tiers of metric:

* :data:`END_TO_END` — what every workload reports with tracing off, and what
  the driver gates on its own.  The driver's contract wants every one of them
  from every workload and never zero, so only the universal ones live here.
* :data:`WORKLOAD_METRICS` — end-to-end metrics that exist on some workloads
  only (and ``fail_share``, which must be 0).  They are measured with tracing
  off, printed by every run, carried in ``BENCHMARK.json`` under
  ``per_layer`` (the only place the contract has for a metric that is not
  universal) and gated by ``run.py --compare`` with the bounds given here.
* :data:`PER_LAYER` — one layer each, taken in the traced run, no bound.

Time bounds are 0.25 where ISSUE 11 said 0.10.  Over sets of ten runs on ten
seeds ``ops_per_s`` spread up to 0.09 of its median (host-speed scaled; 0.34
raw), ``snapshot_roundtrip_s`` 0.13, ``query_p50_ms`` 0.11 and ``setup_s``
0.24, and in a noisy hour the medians of two sets made back to back lay 0.15
(round trip), 0.20 (p50) and 0.17 (set-up) apart; the driver asks for a bound
three spreads wide.  ``bench/README.md`` has the table.
"""

from __future__ import annotations

import re
import statistics
from typing import NamedTuple, Sequence

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Seed of the committed digests in ``expected.json``.
DEFAULT_SEED = 2003


class Workload(NamedTuple):
    name: str
    why: str


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: Allowed worsening of the median as a share of the base; 0.0 = exact;
    #: None = no bound (per-layer diagnostics).
    bound: float | None = None
    #: Workloads the metric exists on; () = all.
    workloads: tuple[str, ...] = ()

    def applies_to(self, workload: str) -> bool:
        return not self.workloads or workload in self.workloads


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "sim-lockstep-bt",
        "Wide timestamp cohorts: the vectorised drain in sim/engine.py and burst/cohort "
        "delivery in runtime/transport.py do the work; the case engine=auto is right about.",
    ),
    Workload(
        "sim-wavefront-lu",
        "Narrow wavefront cohorts under the default network: per-event dispatch and transport "
        "post/match dominate and the vectorised drain is overhead; the case auto gets wrong.",
    ),
    Workload(
        "sim-policy-credit",
        "Generator rank programs, credit policy hooks, in-loop observe_batch and tracer appends: "
        "predictive/ and core/ do most of the work on the same engine and transport.",
    ),
    Workload(
        "paper-cells",
        "Five Table-1 cells through the whole pipeline (simulate, summarise, predict, save, load); "
        "carries the fidelity numbers every simulator speed-up must leave identical.",
    ),
    Workload(
        "serve-cold-churn",
        "repro serve over a pipe with most visits to new streams: table create, LRU evict, "
        "state_nbytes refresh and pickle snapshot do the work, steady-state observe almost none.",
    ),
    Workload(
        "serve-warm-bursts",
        "repro serve over TCP, resident full-history streams in same-key runs of 8: the coalescer "
        "and Shard.observe_batch do the work and table churn none.",
    ),
    Workload(
        "serve-interleaved",
        "Same server, streams interleaved to run length 1, closed loop then open loop at a fixed "
        "rate: nothing to coalesce; the only workload that times an answer against its due time.",
    ),
)

SIM_WORKLOADS = ("sim-lockstep-bt", "sim-wavefront-lu", "sim-policy-credit", "paper-cells")
SERVE_WORKLOADS = ("serve-cold-churn", "serve-warm-bursts", "serve-interleaved")

END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "op/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
)

WORKLOAD_METRICS: tuple[Metric, ...] = (
    Metric("fail_share", "share", "lower", 0.0),
    Metric("accuracy_plus1", "share", "higher", 0.0, ("paper-cells",) + SERVE_WORKLOADS),
    Metric("table1_match", "share", "higher", 0.0, ("paper-cells",)),
    Metric("rss_kb_per_stream", "KB", "lower", 0.05, ("serve-cold-churn",)),
    Metric("snapshot_roundtrip_s", "s", "lower", 0.25, ("serve-cold-churn",)),
    Metric("query_p50_ms", "ms", "lower", 0.25, ("serve-interleaved",)),
)

_SIM = SIM_WORKLOADS
_SIM3 = SIM_WORKLOADS[:3]
_COMPILED = ("sim-lockstep-bt", "sim-wavefront-lu", "paper-cells")
_TRACED = ("sim-policy-credit", "paper-cells")
_CELLS = ("paper-cells",)
_WARM = ("serve-warm-bursts", "serve-interleaved")
_CORE_PROBE = _WARM + ("sim-policy-credit",)
_CHURN = ("serve-cold-churn",)
_TCP = _WARM
_OPEN = ("serve-interleaved",)


def _layer(name: str, unit: str, better: str, workloads: tuple[str, ...]) -> Metric:
    return Metric(name, unit, better, None, workloads)


PER_LAYER: tuple[Metric, ...] = (
    _layer("scenario.build_s", "s", "lower", _SIM),
    _layer("workloads.compile_cold_s", "s", "lower", _COMPILED),
    _layer("workloads.compile_warm_s", "s", "lower", _COMPILED),
    _layer("workloads.lane_ops", "count", "lower", _COMPILED),
    _layer("workloads.compiled_ranks", "count", "higher", _COMPILED),
    _layer("sim.run_s", "s", "lower", _SIM),
    _layer("sim.events", "count", "lower", _SIM),
    _layer("sim.us_per_event", "us", "lower", _SIM),
    _layer("sim.makespan_s", "s", "lower", _SIM),
    _layer("sim.vector_cohorts", "count", "lower", _SIM),
    _layer("sim.events_per_cohort", "count", "higher", _SIM),
    _layer("sim.scalar_run_s", "s", "lower", _SIM3),
    _layer("sim.auto_vs_scalar", "x", "higher", _SIM3),
    _layer("runtime.messages", "count", "lower", _SIM),
    _layer("runtime.eager_share", "share", "higher", _SIM),
    _layer("runtime.unexpected_share", "share", "lower", _SIM),
    _layer("runtime.control_messages", "count", "lower", _SIM),
    _layer("runtime.us_per_message", "us", "lower", _SIM),
    _layer("mpi.collective_messages", "count", "lower", _SIM),
    _layer("predictive.hook_s", "s", "lower", ("sim-policy-credit",)),
    _layer("predictive.hook_calls", "count", "lower", ("sim-policy-credit",)),
    _layer("predictive.burst_len_mean", "count", "higher", ("sim-policy-credit",)),
    _layer("trace.record_overhead_s", "s", "lower", _TRACED),
    _layer("trace.records", "count", "lower", _TRACED),
    _layer("trace.streams_s", "s", "lower", _CELLS),
    _layer("trace.save_s", "s", "lower", _CELLS),
    _layer("trace.load_s", "s", "lower", _CELLS),
    _layer("trace.file_bytes", "B", "lower", _CELLS),
    _layer("core.evaluate_s", "s", "lower", _CELLS),
    _layer("core.us_per_prediction", "us", "lower", _CELLS),
    _layer("core.observe_us", "us", "lower", _CORE_PROBE),
    _layer("core.observe_many8_us_per_obs", "us", "lower", _CORE_PROBE),
    _layer("core.observe_many1_us", "us", "lower", _CORE_PROBE),
    _layer("predictive.state_nbytes_us", "us", "lower", _CHURN),
    _layer("predictive.freeze_us", "us", "lower", _CHURN),
    _layer("predictive.thaw_us", "us", "lower", _CHURN),
    _layer("predictive.frozen_bytes", "B", "lower", _CHURN),
    _layer("serve.protocol.parse_us", "us", "lower", SERVE_WORKLOADS),
    _layer("serve.protocol.encode_us", "us", "lower", SERVE_WORKLOADS),
    _layer("serve.service.route_us", "us", "lower", SERVE_WORKLOADS),
    _layer("serve.service.handle_line_us", "us", "lower", SERVE_WORKLOADS),
    _layer("serve.server.overhead_us", "us", "lower", SERVE_WORKLOADS),
    _layer("serve.server.coalesce_run_mean", "count", "higher", SERVE_WORKLOADS),
    _layer("serve.server.minor_faults_per_line", "count", "lower", SERVE_WORKLOADS),
    _layer("serve.server.fresh_ops_per_s", "op/s", "higher", _TCP),
    _layer("serve.server.fresh_faults_per_line", "count", "lower", _TCP),
    _layer("serve.table.create_us", "us", "lower", _CHURN),
    _layer("serve.table.get_hit_us", "us", "lower", SERVE_WORKLOADS),
    _layer("serve.table.evictions", "count", "lower", SERVE_WORKLOADS),
    _layer("serve.table.streams_created", "count", "lower", SERVE_WORKLOADS),
    _layer("serve.table.resident_bytes_est", "B", "lower", SERVE_WORKLOADS),
    _layer("serve.table.est_vs_rss", "x", "higher", _CHURN),
    _layer("serve.shard.observe_us", "us", "lower", SERVE_WORKLOADS),
    _layer("serve.shard.observe_batch_us_per_obs", "us", "lower", SERVE_WORKLOADS),
    _layer("serve.shard.predict_us", "us", "lower", SERVE_WORKLOADS),
    _layer("serve.snapshot.write_s", "s", "lower", _CHURN),
    _layer("serve.snapshot.load_s", "s", "lower", _CHURN),
    _layer("serve.snapshot.bytes", "B", "lower", _CHURN),
    _layer("serve.snapshot.mb_per_s", "MB/s", "higher", _CHURN),
    _layer("serve.server.query_p99_ms", "ms", "lower", _OPEN),
    _layer("serve.server.gen_late_ms", "ms", "lower", _OPEN),
    _layer("serve.server.backlog_end", "count", "lower", _OPEN),
    _layer("serve.server.generator_limited", "count", "lower", _OPEN),
    _layer("harness.host_speed", "x", "higher", ()),
    _layer("harness.ops_per_s_raw", "op/s", "higher", ()),
    _layer("harness.other_s", "s", "lower", ()),
    _layer("trace_overhead_share", "share", "lower", ()),
)

#: Everything ``--trace 1`` prints, in ``BENCHMARK.json`` order.
TRACED_METRICS: tuple[Metric, ...] = WORKLOAD_METRICS + PER_LAYER


def workload_names() -> list[str]:
    return [workload.name for workload in WORKLOADS]


def metric_by_name(name: str) -> Metric:
    for metric in END_TO_END + TRACED_METRICS:
        if metric.name == name:
            return metric
    raise KeyError(name)


def manifest(command: list[str], paths: list[str], run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` object these tables describe."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in TRACED_METRICS
        ],
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them.

    One sample has no spread: it is returned three times.
    """
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 when the median is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile (nearest rank), refused when the tail is thin.

    Raises :class:`ValueError` unless at least :data:`MIN_SAMPLES_BEYOND`
    samples lie beyond the percentile: a p99 of 300 samples is three samples'
    worth of noise, not a measurement.
    """
    if not 0.0 < pct < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    n = len(values)
    beyond = int(n * (100.0 - pct) / 100.0 + 1e-9)
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{pct:g} of {n} samples has {beyond} samples beyond it; "
            f"need {MIN_SAMPLES_BEYOND}"
        )
    ordered = sorted(values)
    return float(ordered[n - beyond - 1])


def worsening(metric: Metric, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base`` (< 0 = better)."""
    if base == 0:
        return 0.0 if new == 0 else float("inf") if (new > 0) == (metric.better == "lower") else -float("inf")
    change = (new - base) / abs(base)
    return change if metric.better == "lower" else -change
