"""Offline/online equivalence of the serve plane (the load-bearing invariant).

Feeding a recorded trace's per-receiver ``(sender, nbytes)`` stream through
the serve ingestion path — wire-line parsing, CRC32 shard routing, the LRU
stream table, coalesced ``observe_batch`` calls — must yield **bit-identical
predictions** to driving :class:`repro.predictive.online.OnlineMessagePredictor`
directly, for every predictor spec in the registry.  The serve plane is a
routing layer over the exact same predictor fast paths, never a
re-implementation; these tests pin that down across ≥3 registry specs.
"""

import json

import pytest

from cells import SAMPLE_TRACE
from repro.predictive.online import OnlineMessagePredictor
from repro.scenario.spec import PredictorSpec
from repro.serve.service import ServeService
from repro.trace.io import load_traces


#: Registry predictor specs the equivalence is pinned across (>= 3, per the
#: serve-vs-offline invariant; horizon varies to catch horizon plumbing too).
SPECS = [
    "periodicity:window=8,max_period=16,horizon=4",
    "last-value:horizon=3",
    "most-frequent:horizon=4",
    "cycle:horizon=5",
]


def recorded_streams():
    """Per-receiver ``(sender, nbytes)`` sequences from the sample trace."""
    traces, _ = load_traces(SAMPLE_TRACE)
    streams = {}
    for trace in traces:
        pairs = [(r.sender, r.nbytes) for r in trace.logical if r.sender >= 0]
        if pairs:
            streams[str(trace.rank)] = pairs
    assert len(streams) >= 2, "sample trace must hold several receiver streams"
    return streams


def offline_reference(spec_string, streams):
    """Drive OnlineMessagePredictor directly — the ground truth."""
    spec = PredictorSpec.coerce(spec_string)
    keys = sorted(streams)
    predictor = OnlineMessagePredictor(
        nprocs=len(keys), horizon=spec.horizon, predictor_factory=spec.factory()
    )
    for slot, key in enumerate(keys):
        for sender, nbytes in streams[key]:
            predictor.observe(slot, sender, nbytes)
    return {
        key: {
            "predict": predictor.predict(slot),
            "predict_h2": predictor.predict(slot, horizon=2),
            "expects": [predictor.expects_message(slot, s) for s in range(4)],
        }
        for slot, key in enumerate(keys)
    }


def serve_answers(service, streams):
    return {
        key: {
            "predict": service.predict(key),
            "predict_h2": service.predict(key, horizon=2),
            "expects": [service.expects(key, s) for s in range(4)],
        }
        for key in sorted(streams)
    }


@pytest.mark.parametrize("spec_string", SPECS)
def test_wire_ingestion_matches_offline(spec_string):
    """NDJSON ingestion over 3 shards == direct predictor drive, bit for bit."""
    streams = recorded_streams()
    service = ServeService(spec_string, num_shards=3)
    line_number = 0
    # Interleave the receivers round-robin — the adversarial order for the
    # server's same-key coalescing and the LRU touch sequence.
    iterators = {key: iter(pairs) for key, pairs in sorted(streams.items())}
    while iterators:
        for key in list(iterators):
            try:
                sender, nbytes = next(iterators[key])
            except StopIteration:
                del iterators[key]
                continue
            line_number += 1
            line = json.dumps({"receiver": key, "sender": sender, "nbytes": nbytes})
            assert service.handle_line(line, line_number) is None
    assert serve_answers(service, streams) == offline_reference(spec_string, streams)


@pytest.mark.parametrize("spec_string", SPECS[:3])
def test_batched_ingestion_matches_offline(spec_string):
    """Shard-level observe_batch (the server's coalesced path) == offline."""
    streams = recorded_streams()
    service = ServeService(spec_string, num_shards=2)
    for key, pairs in sorted(streams.items()):
        shard = service.shard_for(key)
        # Split each stream into uneven chunks so batch boundaries land
        # mid-pattern, exactly as the server's drain batching does.
        for start in range(0, len(pairs), 7):
            chunk = pairs[start : start + 7]
            shard.observe_batch(key, [s for s, _ in chunk], [b for _, b in chunk])
    assert serve_answers(service, streams) == offline_reference(spec_string, streams)


#: The served configuration (window 24, max period 256: a 280-sample ring),
#: plus non-sticky variants whose answers track the live counters, one of
#: them on a 40-sample ring that every stream overruns ten times.
FULL_HISTORY_SPECS = [
    "periodicity:window=24,max_period=256,horizon=5",
    "periodicity:window=24,max_period=256,horizon=5,sticky=false",
    "periodicity:window=8,max_period=32,horizon=3,sticky=false",
]


def full_history_streams(observations=400):
    """Three noisy periodic streams, each longer than the 280-sample ring."""
    streams = {}
    for index, period in enumerate((4, 9, 30)):
        pairs = [((i % period) % 4, 64 * (1 + (i * 7) % period)) for i in range(observations)]
        for i in range(17 + index, observations, 41):  # a perturbed message now and then
            pairs[i] = (3 - pairs[i][0], pairs[i][1] + 8)
        streams[f"stream-{index}"] = pairs
    return streams


@pytest.mark.parametrize("run_length", [1, 8])
@pytest.mark.parametrize("spec_string", FULL_HISTORY_SPECS)
def test_full_history_coalesced_runs_match_offline(spec_string, run_length):
    """Past the ring-fill point, runs of 1 and of 8 through observe_batch == offline."""
    streams = full_history_streams()
    assert all(len(pairs) >= 288 for pairs in streams.values())
    service = ServeService(spec_string, num_shards=2)
    # Interleave the streams in same-key runs, as the server's coalescer
    # hands them to a shard; answers are compared at several depths so a
    # counter drift cannot hide behind a later resynchronisation.
    for start, depth in ((0, 296), (296, 352), (352, 400)):
        for offset in range(start, depth, run_length):
            for key, pairs in sorted(streams.items()):
                chunk = pairs[offset : offset + run_length]
                service.shard_for(key).observe_batch(
                    key, [s for s, _ in chunk], [b for _, b in chunk]
                )
        prefix = {key: pairs[:depth] for key, pairs in streams.items()}
        assert serve_answers(service, prefix) == offline_reference(spec_string, prefix)


def test_shard_count_is_invisible_to_predictions():
    streams = recorded_streams()
    answers = []
    for num_shards in (1, 2, 5):
        service = ServeService(SPECS[0], num_shards=num_shards)
        for key, pairs in sorted(streams.items()):
            for sender, nbytes in pairs:
                service.observe(key, sender, nbytes)
        answers.append(serve_answers(service, streams))
    assert answers[0] == answers[1] == answers[2]


def test_queries_never_create_streams():
    service = ServeService(SPECS[0], num_shards=2)
    assert service.predict("never-observed") is None
    assert service.expects("never-observed", 0) is None
    assert service.stats()["streams"] == 0
