"""Self-tests of the benchmark harness (no sockets, no child processes)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from harness import gen, metrics, probes, report, serverun, simrun, spans

ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def _churn_bytes(seed: int) -> bytes:
    traffic = gen.ChurnTraffic(seed, observes_per_visit=8)
    return traffic.batch(300).payload + traffic.batch(300).payload


def _resident_bytes(seed: int, run_length: int, predict_after: int) -> bytes:
    traffic = gen.ResidentTraffic(seed, 16, run_length, predict_after)
    chunks, _predicts, ticked = traffic.ticks(20, 4)
    assert b"".join(chunks) + gen.FLUSH_LINE == ticked.payload
    return traffic.warmup(40).payload + traffic.batch(500).payload + ticked.payload


@pytest.mark.parametrize(
    "make",
    [_churn_bytes, lambda s: _resident_bytes(s, 8, 16), lambda s: _resident_bytes(s, 1, 1)],
)
def test_generators_are_a_function_of_the_seed(make):
    assert make(2003) == make(2003)
    assert make(2003) != make(2004)


def test_batch_counts_lines_predictions_and_runs():
    traffic = gen.ResidentTraffic(5, 16, run_length=8, predict_after=16)
    batch = traffic.batch(1700)
    lines = batch.payload.splitlines()
    assert batch.lines == len(lines) == 1701 and lines[-1] + b"\n" == gen.FLUSH_LINE
    assert len(batch.expect) == sum(b'"op":"predict"' in line for line in lines) == 100
    assert batch.observes == 1600 and batch.run_mean == pytest.approx(8.0, abs=0.1)
    alternating = gen.ResidentTraffic(5, 16, run_length=1, predict_after=1).batch(400)
    assert len(alternating.expect) == 200 and alternating.run_mean == 1.0


def test_expected_sender_is_what_the_stream_sends_next():
    traffic = gen.ResidentTraffic(9, 4, run_length=1, predict_after=1)
    first, second = traffic.batch(400), traffic.batch(400)
    lines = [json.loads(raw) for b in (first, second) for raw in b.payload.splitlines()[:-1]]
    expected = iter(first.expect)
    for index, line in enumerate(lines[:400]):
        if line.get("op") == "predict":
            following = next(
                later
                for later in lines[index + 1 :]
                if later["receiver"] == line["receiver"] and "sender" in later
            )
            assert following["sender"] == next(expected)
    assert next(expected, None) is None


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError, match="samples beyond"):
        metrics.percentile(list(range(999)), 99)
    assert metrics.percentile(list(range(1000)), 99) == 989
    with pytest.raises(ValueError):
        metrics.percentile(list(range(199)), 95)
    assert metrics.percentile(list(range(200)), 95) == 189
    with pytest.raises(ValueError):
        metrics.percentile(list(range(1000)), 100)


def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = metrics.quartiles(values)
    assert metrics.spread(values) == pytest.approx((q3 - q1) / q2)
    assert metrics.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_verdicts_follow_the_metrics_own_bound():
    ops = metrics.metric_by_name("ops_per_s")
    steady = report.summarise([100.0, 101.0, 99.0, 100.5, 99.5, 100.0])
    slower = report.summarise([60.0, 61.0, 59.0, 60.5, 59.5, 60.0])
    noisy = report.summarise([60.0, 140.0, 80.0, 120.0, 100.0, 95.0])
    assert report.verdict(ops, steady, steady) == "same"
    assert report.verdict(ops, steady, slower) == "worse"
    assert report.verdict(ops, slower, steady) == "better"
    assert report.verdict(ops, steady, noisy) == "unresolved"
    # Noise between the passes of a launch is not run-to-run spread.
    jittery = report.summarise(noisy["samples"], runs=[99.0, 100.0, 101.0])
    assert report.verdict(ops, steady, jittery) == "same"
    exact = metrics.metric_by_name("accuracy_plus1")
    assert report.verdict(exact, report.summarise([0.9]), report.summarise([0.9])) == "same"
    assert report.verdict(exact, report.summarise([0.9]), report.summarise([0.89])) == "worse"


def test_digest_chains_agree_on_their_common_prefix():
    assert report.digests_agree({"run": ["a", "b", "c"]}, {"run": ["a", "b"]})
    assert not report.digests_agree({"run": ["a", "b"]}, {"run": ["a", "c"]})


def test_a_missing_or_empty_digest_chain_agrees_with_nothing():
    assert not report.digests_agree({"run": ["a"]}, {"run": ["a"], "trace": ["x"]})
    assert not report.digests_agree({"run": ["a"], "trace": []}, {"run": ["a"], "trace": ["x"]})
    assert not report.digests_agree({}, {})


def _result(**workloads) -> dict:
    return {"seed": 1, "seconds": 10.0, "launches": 3, "setups_per_launch": 3, "workloads": workloads}


def _entry(**rows) -> dict:
    return {
        "ops_per_pass": 100,
        "digests": {"run": ["a"]},
        "metrics": {name: report.summarise(samples) for name, samples in rows.items()},
    }


def test_compare_counts_what_is_missing_from_one_side(capsys):
    full = _entry(ops_per_s=[100.0, 101.0, 99.0], fail_share=[0.0])
    assert report.compare(_result(**{"paper-cells": full}), _result(**{"paper-cells": full})) == 0
    no_metric = _entry(ops_per_s=[100.0, 101.0, 99.0])
    assert report.compare(_result(**{"paper-cells": full}), _result(**{"paper-cells": no_metric})) == 1
    assert report.compare(_result(**{"paper-cells": full}), _result()) == 1
    other_shape = dict(_result(**{"paper-cells": full}), launches=1)
    assert report.compare(_result(**{"paper-cells": full}), other_shape) == 1
    no_digest = dict(full, digests={"run": []})
    assert report.compare(_result(**{"paper-cells": full}), _result(**{"paper-cells": no_digest})) == 1
    assert "missing from new" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def _span(ident, name, parent, start, end):
    return {"id": ident, "name": name, "parent": parent, "start": start, "end": end, "run_id": "t"}


def test_self_time_is_duration_minus_what_children_cover():
    tree = [
        _span(0, "harness.traced_run", None, 0.0, 10.0),
        _span(1, "sim.run", 0, 1.0, 7.0),
        _span(2, "predictive.hook", 1, 1.0, 3.0),
        _span(3, "predictive.hook", 1, 2.0, 4.0),  # overlaps span 2: the union is 1..4
        _span(4, "trace.save", 0, 7.0, 9.5),
        _span(5, "serve.protocol.parse", 0, 9.5, 12.0),  # clipped to its parent's end
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - 6.0 - 2.5 - 0.5)
    assert own[1] == pytest.approx(6.0 - 3.0)
    assert own[2] == own[3] == pytest.approx(2.0)
    layers = spans.layer_self_times(tree)
    assert layers["sim"] == pytest.approx(3.0)
    assert layers["predictive"] == pytest.approx(4.0)
    assert layers["serve.protocol"] == pytest.approx(2.5)
    wall, other = spans.attribution(tree)
    assert (wall, other) == (pytest.approx(10.0), pytest.approx(1.0))


def test_recorder_nests_spans_and_anchors_aggregates():
    rec = spans.SpanRecorder("t")
    with rec.span("harness.traced_run"):
        with rec.span("sim.run") as run:
            pass
    run["end"] = run["start"] + 2.0
    rec.add_aggregate("predictive.hook", run, seconds=0.5, count=1000)
    by_name = {s["name"]: s for s in rec.spans}
    assert by_name["sim.run"]["parent"] == by_name["harness.traced_run"]["id"]
    assert by_name["predictive.hook"]["parent"] == run["id"]
    assert spans.self_times(rec.spans)[run["id"]] == pytest.approx(1.5)


# ----------------------------------------------------------------------
# Names: what the runner can emit is what BENCHMARK.json declares
# ----------------------------------------------------------------------
def test_manifest_and_tables_agree_in_both_directions():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert manifest == metrics.manifest(
        manifest["command"], manifest["paths"], manifest["run_seconds"]
    )
    assert manifest["paths"] == ["bench"] and manifest["command"][-1] == "bench/run.py"
    names = [w["name"] for w in manifest["workloads"]]
    names += [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_RE.match(name), name
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in manifest["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])


def test_every_workload_has_sizes_and_every_metric_a_known_scope():
    assert set(simrun.SIZES) == set(metrics.SIM_WORKLOADS)
    assert set(serverun.SIZES) == set(metrics.SERVE_WORKLOADS)
    assert set(metrics.workload_names()) == set(simrun.SIZES) | set(serverun.SIZES)
    for metric in metrics.END_TO_END + metrics.TRACED_METRICS:
        assert set(metric.workloads) <= set(metrics.workload_names()), metric.name
    for name in ("serve-warm-bursts", "serve-interleaved"):
        assert serverun.SIZES[name]["warm_observations"] >= probes.FULL_HISTORY


def test_expected_digests_cover_every_workload_at_the_default_seed():
    with open(ROOT / "bench" / "expected.json", encoding="utf-8") as handle:
        expected = json.load(handle)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        assert expected["seconds"] == json.load(handle)["run_seconds"]
    assert expected["seed"] == metrics.DEFAULT_SEED
    assert set(expected["digests"]) == set(metrics.workload_names())
