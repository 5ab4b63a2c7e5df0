"""Re-derive a performance claim's figures from its committed run files.

    python3 perf/ledger.py                    # every perf/PR-*.json
    python3 perf/ledger.py perf/PR-25.json    # one of them

A ``perf/PR-<n>.json`` holds the result of every ``bench/run.py`` run a
claim rests on, parent and change (a ``claim`` of null files the pairs of a
change that claims no gain, only parity): ``runs`` are alternating ``--trace 0``
runs (one ``--detail`` file each, trimmed of response digests), paired by
``(workload, pair)``; ``full_runs`` are the two full-run result files.  For
each (workload, metric) both sides of the pairs carry, the ledger prints each
side's median and quartiles over its runs and how many pairs the change won,
ties counting for neither; for the full runs, each side's median of the
end-to-end metrics per workload; ``probes`` are named readings outside
``bench/run.py`` (each side's values), printed with each side's median, or
``—`` for a side that has none (a reading the parent cannot take).
Quartiles and which way is better are the benchmark's own
(``bench/harness/metrics.py``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from harness import metrics  # noqa: E402  (the benchmark's vocabulary and statistics)


def fmt(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 100 else f"{value:.3g}"


def pair_rows(runs: list[dict]) -> list[str]:
    by_pair: dict[tuple[str, int], dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault((run["workload"], run["pair"]), {})[run["side"]] = run
    rows = []
    for workload in sorted({workload for workload, _ in by_pair}):
        pairs = [sides for (name, _), sides in sorted(by_pair.items()) if name == workload]
        pairs = [sides for sides in pairs if set(sides) == {"parent", "change"}]
        names = set.intersection(*(set(s[side]["values"]) for s in pairs for side in s))
        for metric in sorted(names):
            sides = {
                side: [s[side]["values"][metric] for s in pairs] for side in ("parent", "change")
            }
            sign = 1 if metrics.metric_by_name(metric).better == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
            cells = []
            for side in ("parent", "change"):
                q1, q2, q3 = metrics.quartiles(sides[side])
                cells.append(f"{side} {fmt(q2)} [{fmt(q1)}–{fmt(q3)}] n={len(sides[side])}")
            rows.append(f"{workload} {metric}: {cells[0]}; {cells[1]}; wins {wins}/{len(pairs)}")
    return rows


def full_rows(full_runs: dict[str, dict]) -> list[str]:
    rows = []
    workloads = full_runs["parent"]["workloads"]
    for workload in workloads:
        for metric in ("setup_s", "ops_per_s", "peak_rss_mb"):
            medians = [
                fmt(full_runs[side]["workloads"][workload]["metrics"][metric]["median"])
                for side in ("parent", "change")
            ]
            rows.append(f"full run {workload} {metric}: parent {medians[0]}; change {medians[1]}")
    return rows


def probe_rows(probes: dict[str, dict]) -> list[str]:
    rows = []
    for name, probe in probes.items():
        cells = []
        for side in ("parent", "change"):
            values = probe.get(side) or []
            if not values:
                cells.append(f"{side} —")
                continue
            median = fmt(metrics.quartiles(values)[1])
            cells.append(f"{side} {median} ({', '.join(fmt(value) for value in values)})")
        rows.append(f"probe {name}: {cells[0]}; {cells[1]}")
    return rows


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or sorted((ROOT / "perf").glob("PR-*.json"))
    for path in paths:
        ledger = json.loads(path.read_text(encoding="utf-8"))
        claim = ledger["claim"]
        if claim is None:
            print(f"== {path.name}: no claim (parity)")
        else:
            print(f"== {path.name}: claim {claim['metric']} on {claim['workload']}")
        for row in pair_rows(ledger["runs"]):
            print(row)
        if "full_runs" in ledger:
            for row in full_rows(ledger["full_runs"]):
                print(row)
        for row in probe_rows(ledger.get("probes", {})):
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
