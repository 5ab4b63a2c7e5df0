#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation.

Runs the 19 application/process-count configurations of Table 1 on the
simulated MPI runtime, then reproduces:

* Table 1  — benchmark message-stream characteristics (measured vs paper),
* Figure 1 — periodic sender/size streams of bt.9, process 3,
* Figure 2 — logical vs physical sender stream of bt.4, process 3,
* Figure 3 — logical-level prediction accuracy (+1 … +5),
* Figure 4 — physical-level prediction accuracy (+1 … +5),

plus the Section 2 extension experiments and the ablations.  The output is
written to stdout and optionally to a Markdown report.  All the heavy lifting
lives in :func:`repro.analysis.report.build_report`; this script is a thin CLI
around it (see also ``python -m repro report``).

Run with::

    python examples/reproduce_paper.py --output report.md

A full-fidelity run (registry default scales) takes a few minutes;
``--scale 0.25`` gives a quick pass with shorter streams (accuracy numbers
are a little lower because the predictor's learning phase is amortised over
fewer messages).
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.report import build_report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="Override the per-application run scale (default: registry defaults).",
    )
    parser.add_argument("--seed", type=int, default=2003, help="Experiment seed.")
    parser.add_argument("--output", type=str, default=None, help="Also write the report to this file.")
    parser.add_argument(
        "--figures-only",
        action="store_true",
        help="Skip the extension experiments and ablations (faster).",
    )
    args = parser.parse_args(argv)

    report = build_report(
        seed=args.seed,
        scale=args.scale,
        include_extensions=not args.figures_only,
        include_ablations=not args.figures_only,
    )
    text = report.render()
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"\nreport written to {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
