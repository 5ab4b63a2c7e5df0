#!/usr/bin/env python3
"""The repo benchmark: one command, seven workloads.

    python3 bench/run.py                          # every workload, summary + result JSON
    python3 bench/run.py --workload NAME ...      # some of them
    python3 bench/run.py --compare A.json B.json  # two result files, metric by metric
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                                                  # one run, one JSON result line (the driver's form)

See ``bench/README.md``.  ``src/`` is put on the path from here, so no
``PYTHONPATH`` is needed; without ``src/`` beside ``bench/`` the command fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from harness import common, metrics, report, spans  # noqa: E402

#: Launches of each workload in a full run (each measures ``--seconds``).
LAUNCHES = 3
#: Fresh set-ups per run with tracing off; ``setup_s`` is their median.
SETUPS = 5


def _manifest() -> dict:
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _expected() -> dict:
    with open(BENCH_DIR / "expected.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
def single_run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload once; returns the run's full detail."""
    from harness import serverun, simrun

    runner = simrun if name in metrics.SIM_WORKLOADS else serverun
    detail = runner.run(name, seed, seconds, trace, setups=1 if trace else SETUPS)
    detail.update(workload=name, seed=seed, seconds=seconds, trace=int(trace), notes=[])

    expected = _expected()
    if seed == expected["seed"] and seconds == expected["seconds"]:
        if not report.digests_agree(detail["digests"], expected["digests"][name]):
            detail["failed"] = detail["attempted"]
            detail["notes"].append("digest differs from bench/expected.json")
    values = detail["values"]
    for metric_name, samples in detail["samples"].items():
        values.setdefault(metric_name, metrics.median(samples))
    values["fail_share"] = detail["failed"] / detail["attempted"]
    unknown = sorted(set(values) - {m.name for m in metrics.END_TO_END + metrics.TRACED_METRICS})
    if unknown:
        raise common.BenchFailure(f"{name}: metrics not declared in harness/metrics.py: {unknown}")
    if values.get("serve.server.generator_limited"):
        detail["notes"].append("generator_limited: the load generator ran late on >1% of ticks")
    if "warm_passes" in detail["sizes"] and values["serve.server.minor_faults_per_line"] > 1:
        detail["notes"].append("the warm passes did not take the server's heap to its steady state")

    recorded = detail.pop("spans", None)
    if recorded:
        wall, other = spans.attribution(recorded)
        values["harness.other_s"] = other
        detail["traced_wall_s"] = wall
        detail["layer_self_s"] = spans.layer_self_times(recorded)
        common.OUT.mkdir(parents=True, exist_ok=True)
        with open(common.OUT / f"trace-{name}.json", "w", encoding="utf-8") as handle:
            json.dump({"run_id": f"{name}-{seed}", "spans": recorded}, handle, indent=1)
            handle.write("\n")
    return detail


def result_line(detail: dict) -> str:
    """The driver's result object: every metric of the tier ``--trace`` selects."""
    tier = metrics.TRACED_METRICS if detail["trace"] else metrics.END_TO_END
    values = detail["values"]
    return json.dumps(
        {
            "correct": detail["failed"] == 0,
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": {
                # A layer this workload does not cross did no work on it: 0.
                m.name: {"value": values.get(m.name, 0), "unit": m.unit}
                for m in tier
            },
        }
    )


def driver_mode(args) -> int:
    detail = single_run(args.workload[0], args.seed, args.seconds, bool(args.trace))
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(detail, handle)
    for metric in metrics.END_TO_END + metrics.TRACED_METRICS:
        if metric.name in detail["values"] and metric.applies_to(detail["workload"]):
            print(f"{metric.name} {detail['values'][metric.name]!r} {metric.unit}")
    for note in detail["notes"]:
        print(f"note: {note}", file=sys.stderr)
    print(result_line(detail), flush=True)
    return 0 if detail["failed"] == 0 else 1


# ----------------------------------------------------------------------
# The full run: launches with tracing off, then one traced run, per workload
# ----------------------------------------------------------------------
def _child_run(name: str, seed: int, seconds: float, trace: int, tag: str) -> dict:
    path = common.OUT / "tmp" / f"detail-{name}-{tag}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    command = [
        sys.executable, str(common.RUN_PY), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--detail", str(path),
    ]  # fmt: skip
    done = subprocess.run(command, stdout=subprocess.DEVNULL, cwd=common.ROOT)
    if not path.exists():
        raise common.BenchFailure(f"{name}: run exited {done.returncode} without a result")
    with open(path, encoding="utf-8") as handle:
        detail = json.load(handle)
    path.unlink()
    return detail


def full_run(args) -> int:
    names = args.workload or metrics.workload_names()
    host = common.host_info()
    result = {
        "host": host,
        "seed": args.seed,
        "seconds": args.seconds,
        "launches": LAUNCHES,
        "setups_per_launch": SETUPS,
        "workloads": {},
    }
    failures = 0
    for name in names:
        print(f"-- {name}: {LAUNCHES} launches of {args.seconds:g} s, then a traced run",
              file=sys.stderr, flush=True)  # fmt: skip
        launches = [_child_run(name, args.seed, args.seconds, 0, str(i)) for i in range(LAUNCHES)]
        traced = _child_run(name, args.seed, args.seconds, 1, "traced")
        pooled: dict[str, list[float]] = {}
        per_run: dict[str, list[float]] = {}
        for launch in launches:
            for metric in metrics.END_TO_END + metrics.WORKLOAD_METRICS:
                if metric.name in launch["values"]:
                    value = launch["values"][metric.name]
                    per_run.setdefault(metric.name, []).append(value)
                    pooled.setdefault(metric.name, []).extend(
                        launch["samples"].get(metric.name, [value])
                    )
        notes = [note for run in launches + [traced] for note in run["notes"]]
        first = launches[0]
        if not all(report.digests_agree(first["digests"], run["digests"]) for run in launches + [traced]):
            notes.append("digests differ between launches of one seed")
            pooled["fail_share"] = per_run["fail_share"] = [1.0]
        layer_names = {m.name for m in metrics.PER_LAYER}
        entry = {
            "sizes": first["sizes"],
            "ops_per_pass": first["ops_per_pass"],
            "digests": first["digests"],
            "metrics": {k: report.summarise(v, per_run[k]) for k, v in pooled.items()},
            "layers": {k: v for k, v in traced["values"].items() if k in layer_names},
            "traced_wall_s": traced["traced_wall_s"],
            "layer_self_s": traced["layer_self_s"],
            "notes": sorted(set(notes)),
        }
        result["workloads"][name] = entry
        report.print_workload(name, entry)
        failures += entry["metrics"]["fail_share"]["median"] > 0 or max(
            entry["metrics"]["fail_share"]["samples"]
        ) > 0
    host["loadavg_1m_end"] = os.getloadavg()[0]
    out = Path(args.out) if args.out else common.OUT / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    print(f"\nresult: {out}; traces: {common.OUT}/trace-<workload>.json", file=sys.stderr)
    return 1 if failures else 0


def write_expected(args) -> int:
    """Regenerate ``expected.json`` (maintainers, after a change meant to move outputs)."""
    digests = {}
    for name in metrics.workload_names():
        chains = _child_run(name, args.seed, args.seconds, 0, "expected")["digests"]
        if name in metrics.SIM_WORKLOADS:  # every pass of a simulation repeats the first
            chains = {chain: passes[:1] for chain, passes in chains.items()}
        digests[name] = chains
    with open(BENCH_DIR / "expected.json", "w", encoding="utf-8") as handle:
        json.dump({"seed": args.seed, "seconds": args.seconds, "digests": digests}, handle, indent=1)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=metrics.workload_names())
    parser.add_argument("--seed", type=int, default=metrics.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="given: one run of one workload, result as one JSON line")  # fmt: skip
    parser.add_argument("--out", help="result file of a full run (default bench/out/result.json)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE.json", "NEW.json"))
    parser.add_argument("--write-expected", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument("--role", choices=("sim-child",), help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        base, new = (json.load(open(path, encoding="utf-8")) for path in args.compare)
        return 1 if report.compare(base, new) else 0

    if not (common.SRC / "repro").is_dir():
        print(f"bench/run.py: no repro package at {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    if args.seconds is None:
        args.seconds = float(_manifest()["run_seconds"])
    try:
        if args.role == "sim-child":
            from harness import simrun

            return simrun.child_main(
                args.workload[0], args.seed, args.seconds, bool(args.trace), args.setup_only
            )
        if args.write_expected:
            return write_expected(args)
        if args.trace is not None:
            if not args.workload or len(args.workload) != 1:
                parser.error("--trace takes exactly one --workload")
            return driver_mode(args)
        return full_run(args)
    except common.BenchFailure as failure:
        print(f"bench/run.py: {failure}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
