"""Result files: summarising samples, printing tables, comparing two files."""

from __future__ import annotations

from harness import metrics
from harness.metrics import Metric


def digests_agree(a: dict, b: dict) -> bool:
    """Both sides hold the same chains, none empty, and each pair agrees on its common prefix.

    A run measures for a time, not for a count, so two runs of one seed differ
    in how many passes they made; every pass both made must match.
    """
    if a.keys() != b.keys() or not a or not all(a.values()) or not all(b.values()):
        return False
    return all(x == y for chain in a for x, y in zip(a[chain], b[chain]))


def summarise(samples: list[float], runs: list[float] | None = None) -> dict:
    """Median and quartiles of the pooled ``samples``; ``runs`` holds one value per launch."""
    q1, q2, q3 = metrics.quartiles(samples)
    return {
        "median": q2, "q1": q1, "q3": q3, "n": len(samples),
        "samples": samples, "runs": samples if runs is None else runs,
    }  # fmt: skip


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def print_workload(name: str, entry: dict) -> None:
    """Every metric of one workload by name, with its unit."""
    print(f"\n== {name}  (ops per pass: {entry['ops_per_pass']}, sizes: {entry['sizes']})")
    for metric in metrics.END_TO_END + metrics.WORKLOAD_METRICS:
        row = entry["metrics"].get(metric.name)
        if row is None:
            continue
        bound = "exact" if metric.bound == 0 else f"bound {metric.bound:g}"
        print(
            f"  {metric.name:<24}{_fmt(row['median']):>14} {metric.unit:<6}"
            f" q1 {_fmt(row['q1'])}  q3 {_fmt(row['q3'])}  n={row['n']}"
            f"  ({metric.better} is better, {bound})"
        )
    layers = entry.get("layers")
    if layers:
        print("  -- traced run, per layer --")
        for metric in metrics.PER_LAYER:
            if metric.name in layers:
                print(f"  {metric.name:<40}{_fmt(layers[metric.name]):>14} {metric.unit}")
        wall = entry["traced_wall_s"]
        print(f"  -- self time by layer (traced wall {wall:.3f} s) --")
        for layer, seconds in entry["layer_self_s"].items():
            print(f"  {layer:<40}{seconds:>14.4f} s  {seconds / wall:6.1%}")
    for note in entry.get("notes", ()):
        print(f"  ! {note}")


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def verdict(metric: Metric, base: dict, new: dict) -> str:
    """``same`` / ``better`` / ``worse`` / ``unresolved`` by the metric's own bound.

    The medians are those of the pooled samples; whether the bound can be
    resolved at all is judged run to run, from each launch's own value.
    """
    worse_by = metrics.worsening(metric, base["median"], new["median"])
    if metric.bound == 0:
        return "same" if worse_by == 0 else "worse" if worse_by > 0 else "better"
    spread = max(metrics.spread(base["runs"]), metrics.spread(new["runs"]))
    if spread > metric.bound:
        # Too noisy for the bound: only a clean separation of the runs counts.
        lower = metric.better == "lower"
        if max(new["runs"]) < min(base["runs"]):
            return "better" if lower else "worse"
        if min(new["runs"]) > max(base["runs"]):
            return "worse" if lower else "better"
        return "unresolved"
    if worse_by > metric.bound:
        return "worse"
    if worse_by < -metric.bound:
        return "better"
    return "same"


def compare(base: dict, new: dict) -> int:
    """Print one row per (workload, end-to-end metric); return the number of bad rows."""
    bad = 0

    def differs(name: str, key: str, what: str = "differs") -> None:
        nonlocal bad
        bad += 1
        print(f"{name:<20}{key:<24}{what:>72}  {'':8}  worse")

    print(
        f"{'workload':<20}{'metric':<24}{'base median [q1, q3]':>36}"
        f"{'new median [q1, q3]':>36}  new/base  verdict"
    )
    for key in ("seconds", "launches", "setups_per_launch"):
        if base[key] != new[key]:
            differs("(run shape)", key, f"{base[key]} against {new[key]}")
    for name in metrics.workload_names():
        a, b = base["workloads"].get(name), new["workloads"].get(name)
        if a is None or b is None:
            if a is not b:
                differs(name, "(workload)", "missing from " + ("base" if a is None else "new"))
            continue
        if a["ops_per_pass"] != b["ops_per_pass"]:
            differs(name, "ops_per_pass")
        if base["seed"] == new["seed"] and not digests_agree(a["digests"], b["digests"]):
            differs(name, "digests")
        for metric in metrics.END_TO_END + metrics.WORKLOAD_METRICS:
            ra, rb = a["metrics"].get(metric.name), b["metrics"].get(metric.name)
            if ra is None or rb is None:
                if ra is not rb:
                    differs(name, metric.name, "missing from " + ("base" if ra is None else "new"))
                continue
            result = verdict(metric, ra, rb)
            bad += result in ("worse", "unresolved")
            ratio = rb["median"] / ra["median"] if ra["median"] else float("nan")
            print(
                f"{name:<20}{metric.name:<24}"
                f"{_cell(ra):>36}{_cell(rb):>36}"
                f"  {ratio:7.3f}x  {result}  (base {_fmt(ra['median'])} {metric.unit})"
            )
    return bad


def _cell(row: dict) -> str:
    return f"{_fmt(row['median'])} [{_fmt(row['q1'])}, {_fmt(row['q3'])}] n={row['n']}"
