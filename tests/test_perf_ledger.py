"""The committed perf ledger re-derives the README's trajectory figures."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from harness import metrics  # noqa: E402  (which way each metric is better)

LEDGERS = sorted((ROOT / "perf").glob("PR-*.json"))


def claim_of(path):
    return json.loads(path.read_text(encoding="utf-8"))["claim"]


#: Ledgers of changes that claim a gain; the others file parity pairs.
CLAIMS = [path for path in LEDGERS if claim_of(path) is not None]
PARITY = [path for path in LEDGERS if claim_of(path) is None]


def ledger_rows(*paths: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "ledger.py"), *(str(ROOT / p) for p in paths)],
        capture_output=True, text=True, check=True,
    )  # fmt: skip
    return done.stdout.splitlines()


@pytest.mark.parametrize("path", CLAIMS, ids=lambda path: path.name)
def test_every_claim_row_matches_its_readme_trajectory_row(path):
    claim = claim_of(path)
    workload, metric = claim["workload"], claim["metric"]
    rows = ledger_rows(f"perf/{path.name}")
    assert rows[0] == f"== {path.name}: claim {metric} on {workload}"
    (row,) = [row for row in rows if row.startswith(f"{workload} {metric}:")]
    match = re.fullmatch(
        rf"{re.escape(workload)} {re.escape(metric)}: parent (\S+) \[(\S+)–(\S+)\] n=(\d+); "
        r"change (\S+) \[\S+–\S+\] n=\d+; wins (\d+)/(\d+)",
        row,
    )
    assert match, row
    parent, parent_q1, parent_q3, pairs, change, wins, total = match.groups()
    assert int(pairs) == int(total) >= 10 and int(wins) >= 9 * int(total) / 10
    number = lambda text: float(text.replace(",", ""))
    # The claim rule: medians further apart, the better way, than the parent's
    # interquartile distance.
    better = 1 if metrics.metric_by_name(metric).better == "higher" else -1
    assert better * (number(change) - number(parent)) > number(parent_q3) - number(parent_q1)
    (readme_row,) = [
        line
        for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
        if line.startswith("|") and f"`perf/{path.name}`" in line
    ]
    ratio = f"{number(change) / number(parent):.2f}×"
    for figure in (parent, change, f"{wins}/{total}", ratio):
        assert figure in readme_row, (figure, readme_row)


def test_without_arguments_every_committed_ledger_prints():
    headers = [row.split(":")[0] for row in ledger_rows() if row.startswith("== ")]
    assert headers == [f"== {path.name}" for path in LEDGERS]


@pytest.mark.parametrize("path", PARITY, ids=lambda path: path.name)
def test_a_parity_ledger_holds_complete_pairs_of_correct_runs(path):
    runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
    assert all(run["correct"] is True and run["failed"] == 0 for run in runs)
    sides: dict[tuple[str, int], set[str]] = {}
    for run in runs:
        sides.setdefault((run["workload"], run["pair"]), set()).add(run["side"])
    assert all(found == {"parent", "change"} for found in sides.values())
    for workload in {workload for workload, _ in sides}:
        assert sum(name == workload for name, _ in sides) >= 3, workload
    assert ledger_rows(f"perf/{path.name}")[0] == f"== {path.name}: no claim (parity)"


def test_a_probe_read_on_one_side_prints_the_other_as_a_dash():
    sys.path.insert(0, str(ROOT / "perf"))
    try:
        import ledger
    finally:
        sys.path.remove(str(ROOT / "perf"))
    assert ledger.probe_rows(
        {"x": {"parent": [], "change": [1.0]}, "y": {"parent": [2.0, 4.0, 3.0], "change": []}}
    ) == ["probe x: parent —; change 1 (1)", "probe y: parent 3 (2, 4, 3); change —"]
