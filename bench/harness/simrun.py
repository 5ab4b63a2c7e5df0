"""The simulation workloads: ``sim-*`` and ``paper-cells``.

The process under test is a fresh child (``run.py --role sim-child``): it
imports ``repro``, builds the scenario, compiles every rank cold, prints
``READY`` (that is ``setup_s``, timed by the parent), makes one untimed warm
pass and then timed passes until ``--seconds`` have gone by.  One pass does
what ``Scenario.run()`` does — same recipe, component for component — split
into the steps the traced run puts spans around; ``paper-cells`` goes on
through summary, prediction, save and load.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import resource
import subprocess
import sys
import time
from typing import NamedTuple

from harness import common
from harness.calibrate import SpeedMeter
from harness.metrics import median
from harness.probes import core_probe
from harness.spans import NullRecorder, SpanRecorder

#: Resolved sizes.  A pass is sized near one second on a 2-core host so that a
#: ten-second run holds several; ISSUE 11 sketched passes of 2.5-6 s, which
#: the driver's time cap (22 runs per workload) does not leave room for.
SIZES: dict[str, dict] = {
    "sim-lockstep-bt": {
        "workload": {"name": "bt", "nprocs": 256, "iterations": 4, "compute_noise": 0.0},
        "machine_network": "analysis.scaling.lockstep_scale_configs()",
        "engine": "auto",
        "policy": "standard",
        "compiled": True,
        "tracer": False,
    },
    "sim-wavefront-lu": {
        "workload": {"name": "lu", "nprocs": 256, "iterations": 1},
        "machine_network": "default presets",
        "engine": "auto",
        "policy": "standard",
        "compiled": True,
        "tracer": False,
    },
    "sim-policy-credit": {
        "workload": "bt.25:scale=0.1",
        "machine_network": "default presets",
        "engine": "auto",
        "policy": "credit:horizon=5",
        "compiled": False,
        "tracer": True,
    },
    "paper-cells": {
        "cells": ["bt.9", "cg.8", "lu.8", "is.32", "sw.16"],
        "scale_factor": 0.25,
        "machine_network": "default presets",
        "engine": "auto",
        "policy": "standard",
        "compiled": True,
        "tracer": True,
        "horizon": 5,
    },
}


class Unit(NamedTuple):
    """One scenario of a workload (``paper-cells`` has five, the others one)."""

    spec: object  # ScenarioSpec
    machine: object  # MachineConfig override or None
    network: object  # NetworkConfig override or None
    analyse: bool


def build_units(name: str, seed: int) -> list[Unit]:
    from repro import ScenarioSpec
    from repro.analysis.experiments import configuration_spec
    from repro.analysis.scaling import lockstep_scale_configs
    from repro.workloads.registry import paper_configurations

    size = SIZES[name]
    if name == "paper-cells":
        import dataclasses

        cells = {c.label: c for c in paper_configurations()}
        return [
            Unit(
                configuration_spec(
                    dataclasses.replace(
                        cells[label], scale=cells[label].scale * size["scale_factor"]
                    ),
                    seed=seed,
                ),
                None,
                None,
                True,
            )
            for label in size["cells"]
        ]
    machine, network = (
        lockstep_scale_configs() if name == "sim-lockstep-bt" else (None, None)
    )
    spec = ScenarioSpec(
        workload=size["workload"],
        seed=seed,
        policy=size["policy"],
        compiled=size["compiled"],
        trace=size["tracer"],
        engine=size["engine"],
    )
    return [Unit(spec, machine, network, False)]


# ----------------------------------------------------------------------
# The process under test
# ----------------------------------------------------------------------
def _rank_contexts(workload, seed: int):
    from repro.mpi.communicator import Communicator, RankContext
    from repro.util.rng import SeededRNG

    for rank in range(workload.nprocs):
        yield RankContext(
            rank=rank,
            size=workload.nprocs,
            comm=Communicator(rank=rank, size=workload.nprocs),
            rng=SeededRNG(seed, "rank", rank),
        )


def compile_all(unit: Unit) -> None:
    """``compile_program`` for every rank (what ``Simulator.run`` triggers)."""
    from repro.workloads.compile import compile_program

    workload = unit.spec.workload.build()
    for ctx in _rank_contexts(workload, unit.spec.seed):
        compile_program(workload, ctx)


def timed_policy(inner):
    """Timing proxy around the injected flow-control policy's hooks.

    ``on_recv_posted`` is left alone: the credit policy does not override it,
    and a proxy that did would make the transport start calling it.
    """
    from repro.runtime.protocol import FlowControlPolicy

    clock = time.perf_counter

    class _TimedPolicy(FlowControlPolicy):
        name = inner.name
        seconds = 0.0
        calls = 0
        deliveries = 0
        delivered = 0

        def bind(self, machine, nprocs):
            super().bind(machine, nprocs)
            inner.bind(machine, nprocs)

        def preallocate_peers(self, rank):
            return inner.preallocate_peers(rank)

        def allows_eager(self, src, dst, nbytes, kind, now):
            start = clock()
            answer = inner.allows_eager(src, dst, nbytes, kind, now)
            self.seconds += clock() - start
            self.calls += 1
            return answer

        def on_message_delivered(self, dst, src, nbytes, tag, kind, now):
            start = clock()
            inner.on_message_delivered(dst, src, nbytes, tag, kind, now)
            self.seconds += clock() - start
            self.calls += 1
            self.deliveries += 1
            self.delivered += 1

        def on_burst_delivered(self, dst, messages, now):
            start = clock()
            inner.on_burst_delivered(dst, messages, now)
            self.seconds += clock() - start
            self.calls += 1
            self.deliveries += 1
            self.delivered += len(messages)

    return _TimedPolicy()


def _digest(result, extra: bytes = b"") -> str:
    sha = hashlib.sha256()
    sha.update(
        f"{result.events_processed}|{result.stats.messages_sent}|{result.makespan.hex()}|".encode()
    )
    sha.update(",".join(t.hex() for t in result.rank_finish_times).encode())
    sha.update(extra)
    return sha.hexdigest()


def run_unit(unit: Unit, rec, tmp, *, engine=None, tracer=None, time_hooks=False) -> dict:
    """One scenario, simulated (and for ``paper-cells`` analysed, saved, loaded)."""
    from repro import Simulator
    from repro.scenario import ScenarioResult

    spec = unit.spec
    with rec.span("scenario.build"):
        workload = spec.workload.build()
        machine = unit.machine if unit.machine is not None else spec.machine.build()
        network = unit.network if unit.network is not None else spec.network.build(spec.seed)
        policy = spec.policy.build()
    if time_hooks:
        policy = timed_policy(policy)
    with rec.span("sim.init"):
        simulator = Simulator(
            nprocs=workload.nprocs,
            machine=machine,
            network=network,
            tracer=spec.trace.enabled if tracer is None else tracer,
            policy=policy,
            seed=spec.seed,
            faults=spec.faults.build(spec.seed),
            engine=engine or spec.engine,
        )
    with rec.span("sim.run") as run_span:
        start = time.perf_counter()
        result = simulator.run([workload.program_for if spec.compiled else workload.program])
        run_s = time.perf_counter() - start
    out = {
        "result": result,
        "events": result.events_processed,
        "run_s": run_s,
        "cohorts": simulator.vector_cohorts,
        "run_span": run_span,
        "policy": policy,
        "trace_bytes": b"",
    }
    if unit.analyse and result.tracer is not None:
        from repro.analysis.table1 import PAPER_TABLE1
        from repro.trace.io import load_traces

        scenario_result = ScenarioResult(spec=spec, workload=workload, result=result)
        with rec.span("trace.streams"):
            summary = scenario_result.summary()
            streams = [
                scenario_result.stream(kind, level)
                for kind in ("sender", "size")
                for level in ("logical", "physical")
            ]
        with rec.span("core.evaluate"):
            accuracy = {
                f"{kind}.{level}": scenario_result.predict(
                    kind, level=level, horizon=SIZES["paper-cells"]["horizon"]
                ).accuracies()
                for kind in ("sender", "size")
                for level in ("logical", "physical")
            }
        path = tmp / f"{spec.label}.jsonl"
        with rec.span("trace.save"):
            saved = scenario_result.save_traces(path)
        with rec.span("trace.load"):
            traces, _meta = load_traces(path)
        out["trace_bytes"] = path.read_bytes()
        paper = PAPER_TABLE1[spec.label]
        out.update(
            accuracy_plus1=accuracy["sender.logical"][0],
            table1_cells=[
                summary.num_frequent_sizes == paper[2],
                summary.num_frequent_senders == paper[3],
            ],
            predictions=sum(len(s) for s in streams),
            records_saved=saved,
            loaded_ok=len(traces) == workload.nprocs
            and sum(len(t.logical) + len(t.physical) for t in traces) == saved,
            accuracy=accuracy,
        )
    return out


def run_pass(units: list[Unit], rec, tmp, **kwargs) -> dict:
    """Every unit once: op count, wall, digest, and the fidelity numbers."""
    start = time.perf_counter()
    outs = [run_unit(unit, rec, tmp, **kwargs) for unit in units]
    wall = time.perf_counter() - start
    sha = hashlib.sha256()
    for out in outs:
        sha.update(_digest(out["result"], out["trace_bytes"]).encode())
        if "accuracy" in out:
            sha.update(json.dumps(out["accuracy"], sort_keys=True).encode())
    summary = {
        "events": sum(o["events"] for o in outs),
        "wall": wall,
        "run_s": sum(o["run_s"] for o in outs),
        "digest": sha.hexdigest(),
        "ok": all(o.get("loaded_ok", True) for o in outs),
        "outs": outs,
    }
    if units[0].analyse:
        cells = [cell for o in outs for cell in o["table1_cells"]]
        summary["accuracy_plus1"] = sum(o["accuracy_plus1"] for o in outs) / len(outs)
        summary["table1_match"] = sum(cells) / len(cells)
    return summary


def _trace_digest(units: list[Unit], warm: dict) -> str:
    """SHA-256 of the saved-trace bytes of a pass that does not itself save."""
    from repro.trace.io import save_traces_to

    sha = hashlib.sha256()
    for out in warm["outs"]:
        handle = io.StringIO()
        save_traces_to(out["result"].tracer, handle)
        sha.update(handle.getvalue().encode())
    return sha.hexdigest()


def child_main(name: str, seed: int, seconds: float, trace: bool, setup_only: bool) -> int:
    """Entry point of the process under test."""
    from repro.workloads.compile import clear_schedule_cache

    units = build_units(name, seed)
    clear_schedule_cache()
    for unit in units:
        if unit.spec.compiled:
            compile_all(unit)
    print("READY", flush=True)
    if not setup_only:
        with common.scratch_dir("sim") as tmp:
            print(json.dumps(_measure(name, seed, seconds, trace, units, tmp)), flush=True)
    return 0


def _measure(name: str, seed: int, seconds: float, trace: bool, units: list[Unit], tmp) -> dict:
    """Warm pass, timed passes, and with ``trace`` the traced run."""
    null = NullRecorder()
    warm = run_pass(units, null, tmp)
    digests = {"run": [warm["digest"]]}
    if units[0].spec.trace.enabled and not units[0].analyse:
        digests["trace"] = [_trace_digest(units, warm)]
    del warm["outs"]

    passes = []
    meter = SpeedMeter()
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        # Every pass starts from a collected heap: what the last one left
        # behind is not this one's cost, in time or in peak memory.
        gc.collect()
        one = run_pass(units, null, tmp)
        del one["outs"]
        one["speed"] = meter.around()
        passes.append(one)
        digests["run"].append(one["digest"])

    attempted = sum(p["events"] for p in passes)
    failed = sum(
        p["events"] for p in passes if p["digest"] != warm["digest"] or not p["ok"]
    )
    report = {
        "ops_per_pass": warm["events"],
        "attempted": attempted,
        "failed": failed,
        "digests": digests,
        "samples": {
            "ops_per_s": [p["events"] / p["wall"] / p["speed"] for p in passes],
            "harness.ops_per_s_raw": [p["events"] / p["wall"] for p in passes],
            "harness.host_speed": [p["speed"] for p in passes],
        },
        "values": {},
    }
    for key in ("accuracy_plus1", "table1_match"):
        if key in warm:
            report["values"][key] = warm[key]
    report["samples"]["peak_rss_mb"] = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ]
    if trace:
        layers, spans = traced_run(
            name,
            seed,
            units,
            tmp,
            untraced_wall=median([p["wall"] * p["speed"] for p in passes]),
            untraced_run_s=median([p["run_s"] for p in passes]),
            digest=warm["digest"],
        )
        report["values"].update(layers)
        report["spans"] = spans
    return report


# ----------------------------------------------------------------------
# The traced run (inside the process under test: the calls are made here)
# ----------------------------------------------------------------------
def traced_run(
    name: str,
    seed: int,
    units: list[Unit],
    tmp,
    untraced_wall: float,
    untraced_run_s: float,
    digest: str,
):
    from repro.workloads.compile import clear_schedule_cache, compile_info

    rec = SpanRecorder(run_id=f"{name}-{seed}")
    credit = name == "sim-policy-credit"
    values: dict[str, float] = {}
    with rec.span("harness.traced_run"):
        meter = SpeedMeter()
        with rec.span("harness.pass") as pass_span:
            traced = run_pass(units, rec, tmp, time_hooks=credit)
        traced_wall = pass_duration(pass_span) * meter.around()
        if traced["digest"] != digest:
            raise common.BenchFailure(f"{name}: the traced pass did not repeat the untraced ones")
        outs = traced["outs"]
        if credit:
            policy = outs[0]["policy"]
            rec.add_aggregate("predictive.hook", outs[0]["run_span"], policy.seconds, policy.calls)
            values["predictive.hook_s"] = policy.seconds
            values["predictive.hook_calls"] = policy.calls
            values["predictive.burst_len_mean"] = policy.delivered / max(policy.deliveries, 1)
        run_s = rec.duration("sim.run")
        events = traced["events"]
        cohorts = sum(o["cohorts"] for o in outs)
        stats = [o["result"].stats for o in outs]
        messages = sum(s.messages_sent for s in stats)
        deliveries = sum(s.expected_deliveries + s.unexpected_deliveries for s in stats)
        values.update(
            {
                "scenario.build_s": rec.duration("scenario.build"),
                "sim.run_s": run_s,
                "sim.events": events,
                "sim.us_per_event": run_s / events * 1e6,
                "sim.makespan_s": sum(o["result"].makespan for o in outs),
                "sim.vector_cohorts": cohorts,
                "sim.events_per_cohort": events / cohorts if cohorts else 0.0,
                "runtime.messages": messages,
                "runtime.eager_share": sum(s.eager_messages for s in stats) / messages,
                "runtime.unexpected_share": sum(s.unexpected_deliveries for s in stats)
                / max(deliveries, 1),
                "runtime.control_messages": sum(s.control_messages for s in stats),
                "runtime.us_per_message": run_s / messages * 1e6,
                "mpi.collective_messages": sum(s.collective_messages for s in stats),
            }
        )
        if units[0].analyse:
            evaluate_s = rec.duration("core.evaluate")
            values.update(
                {
                    "trace.streams_s": rec.duration("trace.streams"),
                    "trace.save_s": rec.duration("trace.save"),
                    "trace.load_s": rec.duration("trace.load"),
                    "trace.file_bytes": sum(len(o["trace_bytes"]) for o in outs),
                    "core.evaluate_s": evaluate_s,
                    "core.us_per_prediction": evaluate_s
                    / sum(o["predictions"] for o in outs)
                    * 1e6,
                }
            )

        if units[0].spec.compiled:
            clear_schedule_cache()
            with rec.span("workloads.compile_cold"):
                for unit in units:
                    compile_all(unit)
            with rec.span("workloads.compile_warm"):
                for unit in units:
                    compile_all(unit)
            infos = [
                compile_info(workload, rank)
                for workload in (unit.spec.workload.build() for unit in units)
                for rank in range(workload.nprocs)
            ]
            values["workloads.compile_cold_s"] = rec.duration("workloads.compile_cold")
            values["workloads.compile_warm_s"] = rec.duration("workloads.compile_warm")
            values["workloads.lane_ops"] = sum(i.get("ops", 0) for i in infos)
            values["workloads.compiled_ranks"] = sum(1 for i in infos if i["compiled"])

        # Differencing runs: same spec, one knob turned; outputs must not move.
        null = NullRecorder()
        if not units[0].analyse:
            with rec.span("sim.scalar_run"):
                scalar = [run_unit(unit, null, tmp, engine="scalar") for unit in units]
            scalar_s = rec.duration("sim.scalar_run")
            values["sim.scalar_run_s"] = scalar_s
            values["sim.auto_vs_scalar"] = scalar_s / pass_duration(pass_span)
            if [_digest(o["result"]) for o in scalar] != [_digest(o["result"]) for o in outs]:
                raise common.BenchFailure(f"{name}: engine=scalar changed the simulation")
        if units[0].spec.trace.enabled:
            with rec.span("sim.tracer_off_run"):
                plain = [run_unit(unit, null, tmp, tracer=False) for unit in units]
            values["trace.record_overhead_s"] = untraced_run_s - sum(o["run_s"] for o in plain)
            values["trace.records"] = sum(
                len(t.logical) + len(t.physical)
                for o in outs
                for t in o["result"].tracer.traces
            )
            if [o["events"] for o in plain] != [o["events"] for o in outs]:
                raise common.BenchFailure(f"{name}: tracer=off changed the simulation")
        if credit:
            values.update(core_probe(rec, seed))
    values["trace_overhead_share"] = traced_wall / untraced_wall - 1.0
    return values, rec.spans


def pass_duration(span: dict) -> float:
    return span["end"] - span["start"]


# ----------------------------------------------------------------------
# The parent: spawns the process under test and times its set-up
# ----------------------------------------------------------------------
def _launch(name: str, seed: int, seconds: float, trace: bool, setup_only: bool):
    command = [
        sys.executable,
        str(common.RUN_PY),
        "--role",
        "sim-child",
        "--workload",
        name,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(int(trace)),
    ]
    if setup_only:
        command.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=common.child_env())
    common.pin(proc.pid)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise common.BenchFailure(f"{name}: process under test exited {code} ({ready.strip()!r})")
    return setup_s, rest


def run(name: str, seed: int, seconds: float, trace: bool, setups: int) -> dict:
    """One run of a simulation workload: ``setups`` launches, the last one measured."""
    setup_samples = []
    for _ in range(setups - 1):
        setup_s, _rest = _launch(name, seed, seconds, trace, setup_only=True)
        setup_samples.append(setup_s)
    setup_s, rest = _launch(name, seed, seconds, trace, setup_only=False)
    setup_samples.append(setup_s)
    report = json.loads(rest.strip().splitlines()[-1])
    report["samples"]["setup_s"] = setup_samples
    report["sizes"] = SIZES[name]
    return report
