"""The committed perf ledger re-derives the README's trajectory figures."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def ledger_rows(*paths: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "ledger.py"), *(str(ROOT / p) for p in paths)],
        capture_output=True, text=True, check=True,
    )  # fmt: skip
    return done.stdout.splitlines()


def test_pr25_claim_row_matches_the_readme_trajectory_row():
    rows = ledger_rows("perf/PR-25.json")
    assert rows[0] == "== PR-25.json: claim ops_per_s on serve-warm-bursts"
    (claim,) = [row for row in rows if row.startswith("serve-warm-bursts ops_per_s:")]
    match = re.fullmatch(
        r"serve-warm-bursts ops_per_s: parent (\S+) \[(\S+)–(\S+)\] n=(\d+); "
        r"change (\S+) \[\S+–\S+\] n=\d+; wins (\d+)/(\d+)",
        claim,
    )
    assert match, claim
    parent, parent_q1, parent_q3, pairs, change, wins, total = match.groups()
    assert int(pairs) == int(total) >= 10 and int(wins) >= 9 * int(total) / 10
    number = lambda text: float(text.replace(",", ""))
    # The claim rule: medians further apart than the parent's interquartile distance.
    assert number(change) - number(parent) > number(parent_q3) - number(parent_q1)
    (readme_row,) = [
        line
        for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
        if line.startswith("|") and "`perf/PR-25.json`" in line
    ]
    ratio = f"{number(change) / number(parent):.2f}×"
    for figure in (parent, change, f"{wins}/{total}", ratio):
        assert figure in readme_row, (figure, readme_row)


def test_without_arguments_every_committed_ledger_prints():
    headers = [row.split(":")[0] for row in ledger_rows() if row.startswith("== ")]
    assert headers == [f"== {path.name}" for path in sorted((ROOT / "perf").glob("PR-*.json"))]
