"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    Simulate one scenario (workload + optional policy/jitter overrides),
    print runtime statistics and optionally save the two-level traces to a
    JSON-lines file.
``sweep``
    Expand a declarative sweep spec (TOML) into scenario cells, run them —
    optionally sharded over worker processes — and print/write the per-cell
    results.  See :mod:`repro.scenario.sweep` for the spec schema.
``predict``
    Load a saved trace file (or simulate on the fly) and evaluate the
    paper's predictor on the sender/size streams of one rank.
``table1``
    Regenerate Table 1 (benchmark message-stream characteristics).
``report``
    Regenerate the full measured-vs-paper report (Table 1, Figures 1-4,
    extensions, ablations).
``serve``
    Run the online prediction service: a ``selectors`` TCP (or one-shot stdin)
    front end hashing streams onto in-process shards, each a memory-bounded
    LRU table of per-stream predictor state, with snapshot/restore.  See
    :mod:`repro.serve` and ``docs/serving.md``.
``list``
    List the available workloads, paper configurations and registered
    scenario components; ``--json`` emits the same machine-readably (feeds
    sweep-spec authoring and tooling).

Every simulating command builds a :class:`repro.scenario.ScenarioSpec` and
runs it through :class:`repro.scenario.Scenario` — the CLI is a thin veneer
over the same declarative API library users call.

Each command imports what it runs inside its handler, and building the
parser imports no simulator, workload or analysis module: ``repro serve``
starts with the serve path only (``docs/serving.md``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro.util.registry import ENGINES

__all__ = ["main", "build_parser"]


def _add_engine_arguments(command, engine_help: str, jobs_help: str) -> None:
    """The ``--engine`` / ``--engine-jobs`` pair of ``run`` and ``sweep``."""
    command.add_argument("--engine", choices=ENGINES, default=None, help=engine_help)
    command.add_argument(
        "--engine-jobs", type=int, default=None, metavar="N", help=jobs_help
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Exploring the Predictability of MPI Messages' (IPDPS 2003).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="simulate one scenario")
    run_cmd.add_argument(
        "workload",
        metavar="WORKLOAD",
        help="registry name or workload shorthand, e.g. 'bt', 'bt.9:scale=0.2' "
        "or 'replay:file=trace.jsonl' (see 'repro list' for names)",
    )
    run_cmd.add_argument(
        "--nprocs",
        type=int,
        default=None,
        help="process count (optional when the shorthand carries it, or for "
        "'replay:', which takes it from the trace file)",
    )
    run_cmd.add_argument("--scale", type=float, default=None)
    run_cmd.add_argument("--seed", type=int, default=2003)
    run_cmd.add_argument("--jitter", type=float, default=None, help="network jitter sigma override")
    run_cmd.add_argument(
        "--policy",
        type=str,
        default=None,
        metavar="KIND[:k=v,...]",
        help="flow-control policy shorthand, e.g. 'credit:horizon=5' "
        "(default: standard; see 'repro list')",
    )
    _add_engine_arguments(
        run_cmd,
        "simulation engine (results are engine-independent — this only "
        "changes how they are computed)",
        "worker processes for --engine parallel (default: 2; 0 "
        "auto-tunes to the machine's CPU count)",
    )
    run_cmd.add_argument("--save-traces", type=str, default=None, metavar="FILE")

    sweep_cmd = sub.add_parser(
        "sweep", help="run a declarative scenario sweep from a TOML spec"
    )
    sweep_cmd.add_argument("spec", metavar="SPEC.toml", help="sweep (or single-scenario) TOML file")
    sweep_cmd.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="shard the cells over N worker processes (bit-identical to "
        "sequential; default: in-process)",
    )
    sweep_cmd.add_argument(
        "--out",
        type=str,
        default=None,
        metavar="DIR",
        help="write summary.json (and, with --save-traces, per-cell trace "
        "files) into DIR",
    )
    sweep_cmd.add_argument(
        "--save-traces",
        action="store_true",
        help="with --out: save each cell's two-level traces as <cell>.traces.jsonl",
    )
    sweep_cmd.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock budget; a cell over budget fails with "
        "TimeLimitExceeded",
    )
    sweep_cmd.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort on the first cell failure (pending cells are cancelled "
        "and the worker pool shut down cleanly) instead of recording it",
    )
    _add_engine_arguments(
        sweep_cmd,
        "override the simulation engine for every cell (results are "
        "engine-independent — this only changes how they are computed); "
        "'parallel' partitions each cell's ranks over --engine-jobs worker "
        "processes, falling back in-process where ineligible",
        "worker processes per cell for --engine parallel (default: 2; "
        "0 auto-tunes to the machine's CPU count); the cell pool is capped "
        "so --jobs x --engine-jobs stays within the machine's CPUs",
    )
    sweep_cmd.add_argument(
        "--accuracy-table",
        action="store_true",
        help="after the run, print the cross-cell prediction-accuracy table "
        "(per-horizon sender accuracy for each traced cell)",
    )
    sweep_cmd.add_argument(
        "--resume",
        action="store_true",
        help="with --out: skip cells already checkpointed under "
        "<out>/cells/ from a previous run; only unfinished/failed cells "
        "re-run",
    )

    predict_cmd = sub.add_parser("predict", help="evaluate the predictor on a stream")
    predict_cmd.add_argument("--traces", type=str, default=None, help="trace file from 'run --save-traces'")
    predict_cmd.add_argument(
        "--workload", default=None, help="registry name (see 'repro list')"
    )
    predict_cmd.add_argument("--nprocs", type=int, default=None)
    predict_cmd.add_argument("--scale", type=float, default=1.0)
    predict_cmd.add_argument("--seed", type=int, default=2003)
    predict_cmd.add_argument("--rank", type=int, default=None)
    predict_cmd.add_argument("--level", choices=["logical", "physical"], default="logical")
    predict_cmd.add_argument("--horizon", type=int, default=5)
    predict_cmd.add_argument("--window", type=int, default=24)
    predict_cmd.add_argument("--max-period", type=int, default=256)

    table_cmd = sub.add_parser("table1", help="regenerate Table 1")
    table_cmd.add_argument("--scale", type=float, default=None)
    table_cmd.add_argument("--seed", type=int, default=2003)

    report_cmd = sub.add_parser("report", help="regenerate the full reproduction report")
    report_cmd.add_argument("--scale", type=float, default=None)
    report_cmd.add_argument("--seed", type=int, default=2003)
    report_cmd.add_argument("--output", type=str, default=None)
    report_cmd.add_argument("--skip-extensions", action="store_true")
    report_cmd.add_argument("--skip-ablations", action="store_true")
    report_cmd.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="simulate the 19 configuration cells over N worker processes "
        "(bit-identical to sequential; default: in-process)",
    )

    serve_cmd = sub.add_parser(
        "serve", help="run the online prediction service (TCP or stdin)"
    )
    serve_cmd.add_argument(
        "--predictor",
        type=str,
        default="periodicity",
        metavar="KIND[:k=v,...]",
        help="registry predictor spec served per stream, e.g. "
        "'periodicity:window=24,max_period=256,horizon=5' (default: the "
        "paper's periodicity predictor; see 'repro list')",
    )
    serve_cmd.add_argument(
        "--shards",
        type=int,
        default=4,
        metavar="N",
        help="in-process shards streams are hashed onto (default: 4)",
    )
    serve_cmd.add_argument(
        "--max-streams",
        type=int,
        default=None,
        metavar="N",
        help="per-shard LRU cap: evict the coldest streams beyond N resident "
        "(default: unbounded)",
    )
    serve_cmd.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="B",
        help="per-shard resident-bytes cap (estimate; default: unbounded)",
    )
    serve_cmd.add_argument("--host", type=str, default="127.0.0.1")
    serve_cmd.add_argument(
        "--port",
        type=int,
        default=7077,
        help="TCP listen port; 0 binds an ephemeral port (printed on stdout)",
    )
    serve_cmd.add_argument(
        "--stdin",
        action="store_true",
        help="one-shot pipe mode: events on stdin, responses on stdout, "
        "exit at EOF (no TCP listener)",
    )
    serve_cmd.add_argument(
        "--restore",
        type=str,
        default=None,
        metavar="DIR",
        help="restore all shard state from a snapshot directory before "
        "serving (--predictor/--shards/caps then come from the snapshot)",
    )
    serve_cmd.add_argument(
        "--snapshot-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="snapshot all shards into DIR on shutdown (clients can also "
        "snapshot any time with the 'snapshot' op)",
    )

    list_cmd = sub.add_parser(
        "list", help="list workloads, paper configurations and scenario components"
    )
    list_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the registries machine-readably (for sweep authoring/tooling)",
    )
    return parser


def _refuse(what: str, error: Exception) -> int:
    """A usage error: one ``what: message`` line on stderr, exit status 2.

    A ``KeyError`` prints its message, not its ``repr``.
    """
    message = error.args[0] if isinstance(error, KeyError) and len(error.args) == 1 else error
    print(f"{what}: {message}", file=sys.stderr)
    return 2


def _given(args, *names: str) -> dict:
    """The options among ``names`` that were given (are not ``None``)."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _refuse_unknown_workload(name: str) -> bool:
    """Print the usage error and return True when ``name`` is no registered workload."""
    from repro.workloads.registry import workload_names

    if name in workload_names():
        return False
    print(f"unknown workload {name!r}; available: {', '.join(workload_names())}", file=sys.stderr)
    return True


def _cmd_run(args) -> int:
    from repro.scenario.scenario import Scenario
    from repro.scenario.spec import ScenarioSpec, WorkloadSpec
    from repro.util.text import ascii_table

    try:
        workload_spec = WorkloadSpec.from_shorthand(args.workload)
    except (ValueError, KeyError) as error:
        return _refuse(f"cannot parse workload {args.workload!r}", error)
    if _refuse_unknown_workload(workload_spec.name):
        return 2
    try:
        spec = ScenarioSpec(
            workload=dataclasses.replace(workload_spec, **_given(args, "nprocs", "scale")),
            seed=args.seed,
            network={"overrides": {"jitter_sigma": args.jitter}} if args.jitter is not None else None,
            policy=args.policy,
            **_given(args, "engine", "engine_jobs"),
        )
        scenario_result = Scenario(spec).run()
    except (OSError, KeyError, TypeError, ValueError) as error:
        return _refuse("cannot run scenario", error)
    workload = scenario_result.workload
    summary = scenario_result.stats.summary()
    print(ascii_table(["metric", "value"], sorted(summary.items()), title=f"{workload!r}"))
    rank = scenario_result.representative_rank
    stream_summary = scenario_result.summary(level="logical", rank=rank)
    print(
        f"\nrepresentative rank {rank}: {stream_summary.total_messages} messages, "
        f"{stream_summary.num_distinct_senders} senders, "
        f"{stream_summary.num_distinct_sizes} sizes"
    )
    if args.save_traces:
        count = scenario_result.save_traces(args.save_traces)
        print(f"saved {count} trace records to {args.save_traces}")
    return 0


def _sweep_row(record: dict, cached: bool) -> list:
    """One ascii-table row for the record of any sweep cell outcome."""
    policy = record["spec"]["policy"]["kind"]
    if "error_type" in record:
        error = f"{record['error_type']}: {record['error_message']}"[:48]
        return [record["cell"], record["label"], policy, "FAILED", "-", "-", error]
    stream = record["stream"]
    return [
        record["cell"],
        record["label"],
        policy,
        "cached" if cached else "ok",
        record["stats"]["messages_sent"],
        f"{record['makespan'] * 1e3:.3f}",
        stream["total_messages"] if stream is not None else "-",
    ]


def _cmd_sweep(args) -> int:
    from repro.scenario.scenario import ScenarioResult
    from repro.scenario.sweep import (
        CachedCell,
        Sweep,
        SweepAborted,
        cell_record,
        sweep_accuracy_table,
    )
    from repro.util.text import ascii_table

    try:
        sweep = Sweep.from_toml(args.spec)
        specs = sweep.expand()
    except (OSError, ValueError, KeyError, TypeError) as error:
        return _refuse(f"cannot load sweep spec {args.spec!r}", error)
    if not specs:
        print("sweep expands to zero cells", file=sys.stderr)
        return 2
    if args.resume and not args.out:
        print("--resume needs --out (the checkpoint directory)", file=sys.stderr)
        return 2
    if args.save_traces and not args.out:
        print("--save-traces needs --out (the directory to save into)", file=sys.stderr)
        return 2
    print(
        f"sweep {sweep.name or Path(args.spec).stem!r}: {len(specs)} cells"
        + (f", {args.jobs} jobs" if args.jobs and args.jobs > 1 else ""),
        file=sys.stderr,
    )
    try:
        results = sweep.run_all(
            jobs=args.jobs,
            timeout=args.timeout,
            fail_fast=args.fail_fast,
            out=args.out,
            resume=args.resume,
            engine=args.engine,
            engine_jobs=args.engine_jobs,
        )
    except ValueError as error:  # a timeout run_all refuses
        print(f"cannot run sweep: {error}", file=sys.stderr)
        return 2
    except SweepAborted as aborted:
        print(str(aborted), file=sys.stderr)
        return 3
    records = [{"cell": index, **cell_record(o)} for index, o in enumerate(results)]
    cells = [record for record in records if "error_type" not in record]
    failures = [record for record in records if "error_type" in record]
    rows = [
        _sweep_row(record, isinstance(outcome, CachedCell))
        for record, outcome in zip(records, results)
    ]
    print(
        ascii_table(
            ["cell", "label", "policy", "status", "messages", "makespan (ms)", "rank msgs / error"],
            rows,
            title=f"sweep — {sweep.name or Path(args.spec).stem}",
        )
    )
    if args.accuracy_table:
        table_rows = sweep_accuracy_table(results)
        horizon = max(
            (len(row["accuracy_pct"]) for row in table_rows if row["accuracy_pct"]),
            default=0,
        )
        rendered = [
            [
                row["cell"],
                row["label"],
                row["policy"],
                row["status"],
                row["stream_length"] if row["stream_length"] is not None else "-",
            ]
            + [
                f"{row['accuracy_pct'][k]:.1f}%"
                if row["accuracy_pct"] is not None and k < len(row["accuracy_pct"])
                else "-"
                for k in range(horizon)
            ]
            + [
                f"{row['coverage_pct']:.1f}%" if row["coverage_pct"] is not None else "-"
            ]
            for row in table_rows
        ]
        headers = (
            ["cell", "label", "policy", "status", "msgs"]
            + [f"+{k}" for k in range(1, horizon + 1)]
            + ["coverage"]
        )
        print()
        print(
            ascii_table(
                headers,
                rendered,
                title="sender prediction accuracy — representative ranks",
            )
        )
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        summary_payload = {
            "format": "repro-sweep-summary",
            "version": 3,
            "name": sweep.name,
            "spec_file": Path(args.spec).name,
            "cells": cells,
            "failures": failures,
        }
        summary_path = out_dir / "summary.json"
        summary_path.write_text(
            json.dumps(summary_payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        written = [summary_path.name]
        if args.save_traces:
            for index, outcome in enumerate(results):
                if (
                    not isinstance(outcome, ScenarioResult)
                    or outcome.result.tracer is None
                ):
                    continue
                trace_path = out_dir / f"cell-{index:02d}-{outcome.label}.traces.jsonl"
                outcome.save_traces(trace_path, metadata={"cell": index})
                written.append(trace_path.name)
        print(f"wrote {', '.join(written)} to {out_dir}", file=sys.stderr)
    if failures:
        print(
            f"{len(failures)} of {len(results)} cells failed "
            f"({', '.join(f['label'] for f in failures)})",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_predict(args) -> int:
    from repro.core.evaluation import evaluate_stream
    from repro.scenario.scenario import Scenario
    from repro.scenario.spec import PredictorSpec, ScenarioSpec, WorkloadSpec
    from repro.trace.io import load_traces
    from repro.trace.streams import sender_stream, size_stream
    from repro.util.text import ascii_table

    if not args.traces and not (args.workload and args.nprocs):
        print("predict requires either --traces FILE or --workload/--nprocs", file=sys.stderr)
        return 2
    if args.workload and _refuse_unknown_workload(args.workload):
        return 2
    try:
        predictor_spec = PredictorSpec(
            kind="periodicity",
            horizon=args.horizon,
            params={"window_size": args.window, "max_period": args.max_period},
        )
        if args.traces:
            traces, metadata = load_traces(args.traces)
        else:
            spec = ScenarioSpec(
                workload=WorkloadSpec(name=args.workload, nprocs=args.nprocs, scale=args.scale),
                seed=args.seed,
                predictor=predictor_spec,
            )
            scenario_result = Scenario(spec).run()
    except (OSError, KeyError, TypeError, ValueError) as error:
        return _refuse("cannot run scenario", error)
    if args.traces:
        rank = args.rank if args.rank is not None else 0
        if not (0 <= rank < len(traces)):
            print(f"rank {rank} out of range for trace file with {len(traces)} ranks", file=sys.stderr)
            return 2
        records = traces[rank].logical if args.level == "logical" else traces[rank].physical
        label = f"{metadata.get('workload', 'trace')} (rank {rank}, {args.level})"
        factory = predictor_spec.factory()
        accuracy = {
            name: evaluate_stream(stream(records), factory, horizon=args.horizon)
            for name, stream in (("sender", sender_stream), ("size", size_stream))
        }
    else:
        rank = args.rank if args.rank is not None else scenario_result.representative_rank
        label = f"{args.workload}.{args.nprocs} (rank {rank}, {args.level})"
        accuracy = {
            name: scenario_result.predict(kind=name, level=args.level, rank=rank)
            for name in ("sender", "size")
        }
    rows = [
        [name] + [f"{100 * a:.1f}%" for a in result.accuracies()]
        for name, result in accuracy.items()
    ]
    headers = ["stream"] + [f"+{k}" for k in range(1, args.horizon + 1)]
    print(ascii_table(headers, rows, title=f"prediction accuracy — {label}"))
    return 0


def _cmd_table1(args) -> int:
    from repro.analysis.experiments import ExperimentContext
    from repro.analysis.table1 import build_table1, render_table1

    context = ExperimentContext(seed=args.seed, scale=args.scale)
    print(render_table1(build_table1(context)))
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.report import build_report

    report = build_report(
        seed=args.seed,
        scale=args.scale,
        include_extensions=not args.skip_extensions,
        include_ablations=not args.skip_ablations,
        jobs=args.jobs,
    )
    text = report.render()
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"\nreport written to {args.output}", file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    from repro.serve.server import ServeServer, run_stdin
    from repro.serve.service import ServeService
    from repro.serve.snapshot import SnapshotError

    try:
        if args.restore:
            service = ServeService.restore(args.restore)
            print(
                f"restored {service.num_shards} shards "
                f"({service.stats()['streams']} streams) from {args.restore}",
                file=sys.stderr,
            )
        else:
            service = ServeService(
                args.predictor,
                num_shards=args.shards,
                max_streams=args.max_streams,
                max_bytes=args.max_bytes,
            )
    except (SnapshotError, KeyError, TypeError, ValueError) as error:
        return _refuse("cannot build the serve service", error)

    rejected = 0
    if args.stdin:
        rejected = run_stdin(service, sys.stdin, sys.stdout)
        if rejected:
            print(f"rejected {rejected} malformed event lines", file=sys.stderr)
    else:
        server = ServeServer(service, host=args.host, port=args.port)
        server.start()
        # Parsed by scripts/CI to discover an ephemeral --port 0 binding.
        print(f"serving on {args.host}:{server.port}", flush=True)
        try:
            server.serve_until_shutdown()
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            print("interrupted — shutting down", file=sys.stderr)
    if args.snapshot_dir:
        manifest = service.snapshot(args.snapshot_dir)
        print(
            f"snapshotted {manifest['streams']} streams over "
            f"{manifest['num_shards']} shards to {args.snapshot_dir}",
            file=sys.stderr,
        )
    return 1 if rejected else 0


def _registry_listing() -> dict:
    """Machine-readable view of every scenario-addressable component."""
    from repro.predictive.registry import POLICIES, PREDICTORS
    from repro.serve.protocol import OPS as SERVE_OPS
    from repro.serve.snapshot import SNAPSHOT_FORMAT, SNAPSHOT_VERSION
    from repro.sim.registry import FAULT_PRESETS, MACHINE_PRESETS, NETWORK_PRESETS
    from repro.workloads.registry import paper_configurations, workload_names

    return {
        "engines": [
            {
                "name": "auto",
                "description": "scalar drain below 16 compiled ranks, "
                "vectorised cohort drain at or above (the default)",
                "engages_when": "always",
            },
            {
                "name": "scalar",
                "description": "record-by-record event drain",
                "engages_when": "always",
            },
            {
                "name": "vectorised",
                "description": "timestamp-cohort batch drain over compiled "
                "op lanes",
                "engages_when": "at least one rank program compiles; "
                "generator ranks still step record-by-record",
            },
            {
                "name": "parallel",
                "description": "rank partitions over engine_jobs worker "
                "processes, synchronised in conservative windows of the "
                "minimum network latency; bit-identical to the in-process "
                "engines",
                "engages_when": "engine_jobs >= 2, all rank programs "
                "compile, the network has a positive minimum latency and "
                "no jitter/contention/drop state, and the flow-control "
                "policy decides eager sends without receiver state "
                "(standard, always-rendezvous); anything else falls back "
                "in-process and records the reason in parallel_info",
            },
        ],
        "workloads": workload_names(),
        "paper_configurations": [
            {
                "label": config.label,
                "workload": config.workload,
                "nprocs": config.nprocs,
                "scale": config.scale,
            }
            for config in paper_configurations()
        ],
        "serve": {
            "transports": ["tcp", "stdin"],
            "ops": sorted(SERVE_OPS),
            "snapshot_format": {"name": SNAPSHOT_FORMAT, "version": SNAPSHOT_VERSION},
            "default_predictor": "periodicity",
            "routing": "crc32(key) % shards",
        },
        "policies": POLICIES.describe(),
        "predictors": PREDICTORS.describe(),
        "machine_presets": MACHINE_PRESETS.describe(),
        "network_presets": NETWORK_PRESETS.describe(),
        "fault_presets": FAULT_PRESETS.describe(),
    }


def _cmd_list(args) -> int:
    from repro.util.text import ascii_table

    listing = _registry_listing()
    if getattr(args, "json", False):
        print(json.dumps(listing, indent=2, sort_keys=True))
        return 0
    print("available workloads:")
    for name in listing["workloads"]:
        print(f"  {name}")
    print("\npaper configurations (Table 1):")
    rows = [
        [config["label"], config["workload"], config["nprocs"], config["scale"]]
        for config in listing["paper_configurations"]
    ]
    print(ascii_table(["label", "workload", "nprocs", "default scale"], rows))
    print("\nengines:")
    for entry in listing["engines"]:
        print(f"  {entry['name']}: {entry['description']}")
        print(f"    engages when: {entry['engages_when']}")
    serve = listing["serve"]
    print("\nserve (online prediction service):")
    print(f"  transports: {', '.join(serve['transports'])}")
    print(f"  ops: {', '.join(serve['ops'])}")
    print(
        f"  snapshot format: {serve['snapshot_format']['name']} "
        f"v{serve['snapshot_format']['version']}"
    )
    for title, key in (
        ("flow-control policies", "policies"),
        ("predictors", "predictors"),
        ("machine presets", "machine_presets"),
        ("network presets", "network_presets"),
        ("fault presets", "fault_presets"),
    ):
        print(f"\n{title}:")
        for entry in listing[key]:
            aliases = f" (aliases: {', '.join(entry['aliases'])})" if entry["aliases"] else ""
            print(f"  {entry['name']}{aliases}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "predict": _cmd_predict,
    "table1": _cmd_table1,
    "report": _cmd_report,
    "serve": _cmd_serve,
    "list": _cmd_list,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
