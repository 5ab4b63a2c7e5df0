"""Tests for predictor state (repro.predictive.state and every ``get_state``).

The contract: a predictor rebuilt from its state answers and learns exactly
as the original; the typed encoding round-trips byte for byte and turns any
other byte string into a :class:`SnapshotError` or a working predictor; and
the size formula is within 15% of what tracemalloc measures.
"""

import json
import os
import pathlib
import re
import subprocess
import sys
from array import array
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.predictor import PredictorState
from repro.predictive.online import OnlineMessagePredictor
from repro.predictive.registry import create_predictor, predictor_names
from repro.predictive.state import KINDS, SnapshotError, freeze_state, state_nbytes, thaw_state

CONFIGS = {
    "periodicity": st.tuples(st.integers(1, 12), st.integers(1, 24), st.booleans()).map(
        lambda c: dict(zip(("window_size", "max_period", "sticky"), c))
    ),
    "most-frequent": st.integers(1, 10).map(lambda w: {"window_size": w}),
    "markov": st.integers(1, 3).map(lambda k: {"order": k}),
    "last-value": st.just({}),
    "cycle": st.just({}),
    "stride": st.just({}),
}

stream_predictors = st.sampled_from(sorted(CONFIGS)).flatmap(
    lambda kind: CONFIGS[kind].map(lambda params: create_predictor(kind, **params))
)
samples = st.lists(st.integers(0, 7) | st.integers(2**40, 2**40 + 3), max_size=120)


def test_every_registered_predictor_has_a_state():
    assert set(CONFIGS) == set(predictor_names()) == set(KINDS) - {"online"}


class TestRoundTrip:
    @given(stream_predictors, samples, st.lists(st.integers(0, 9), min_size=50, max_size=50))
    @settings(max_examples=150, deadline=None)
    def test_rebuilt_stream_predictor_answers_like_the_original(self, predictor, seen, then):
        for value in seen:
            predictor.observe(value)
        rebuilt = type(predictor).from_state(predictor.get_state())
        thawed = thaw_state(freeze_state(predictor))
        assert freeze_state(rebuilt) == freeze_state(thawed) == freeze_state(predictor)
        for value in then:
            for copy in (predictor, rebuilt, thawed):
                copy.observe(value)
            assert rebuilt.predict(4) == thawed.predict(4) == predictor.predict(4)
        assert freeze_state(rebuilt) == freeze_state(predictor)
        assert state_nbytes(rebuilt) == state_nbytes(predictor)

    @given(
        st.sampled_from(sorted(CONFIGS)),
        st.integers(1, 3),
        st.integers(1, 6),
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5), st.integers(0, 3)), max_size=150),
    )
    @settings(max_examples=60, deadline=None)
    def test_rebuilt_online_predictor_answers_like_the_original(self, kind, nprocs, horizon, events):
        predictor = OnlineMessagePredictor(nprocs, horizon, lambda: create_predictor(kind))
        for receiver, sender, size in events:
            predictor.observe(receiver % nprocs, sender, 64 << size)
        rebuilt = OnlineMessagePredictor.from_state(predictor.get_state())
        assert freeze_state(rebuilt) == freeze_state(predictor)
        for step in range(50):
            receiver, sender = step % nprocs, step % 3
            for copy in (predictor, rebuilt):
                copy.observe(receiver, sender, 64 * sender)
            assert rebuilt.predict(receiver) == predictor.predict(receiver)
            assert rebuilt.expects_message(receiver, 1) == predictor.expects_message(receiver, 1)
        assert freeze_state(rebuilt) == freeze_state(predictor)
        assert rebuilt.observations == predictor.observations
        assert state_nbytes(rebuilt) == state_nbytes(predictor)

    @pytest.mark.parametrize("kind", sorted(CONFIGS))
    def test_state_is_plain_values(self, kind):
        predictor = OnlineMessagePredictor(1, 5, lambda: create_predictor(kind))
        for value in range(300):
            predictor.observe(0, value % 5, 512)
        state = predictor.get_state()
        assert state.kind == "online" and state.config == (1, 5)
        for stream in state.data[1:]:
            assert isinstance(stream, PredictorState) and stream.kind == kind
            assert all(type(v) is int for v in stream.config)
            assert all(
                v is None or type(v) is int or (type(v) is array and v.typecode == "q")
                for v in stream.data
            )


class TestFormat4:
    """The encoding, byte for byte: one fixed online predictor per stream kind."""

    @pytest.mark.parametrize("kind", sorted(CONFIGS))
    def test_freeze_state_writes_the_recorded_bytes(self, kind):
        assert freeze_state(golden_predictor(kind)).hex() == FORMAT_4[kind]

    @pytest.mark.parametrize("kind", sorted(CONFIGS))
    def test_the_recorded_bytes_thaw_to_the_same_predictor(self, kind):
        original, thawed = golden_predictor(kind), thaw_state(bytes.fromhex(FORMAT_4[kind]))
        for step in range(40):
            receiver = step % 2
            assert thawed.predict(receiver) == original.predict(receiver)
            assert thawed.expects_message(receiver, 0) == original.expects_message(receiver, 0)
            for copy in (original, thawed):
                copy.observe(receiver, step % 4, 64 * (step % 3))
        assert freeze_state(thawed) == freeze_state(original)

    @pytest.mark.parametrize(
        "vector", [[1.5, 2.0], [2**63, 1], np.arange(3, dtype=np.uint64), array("d", [1.0])]
    )
    def test_a_vector_that_is_not_int64_is_refused_not_cast(self, vector):
        state = PredictorState("most-frequent", (3,), (vector,))
        with pytest.raises(TypeError, match="most-frequent state field 0 is"):
            freeze_state(SimpleNamespace(get_state=lambda: state))


#: Stream predictor parameters of the recorded predictors (the rest default).
GOLDEN_PARAMS = {
    "periodicity": {"window_size": 4, "max_period": 6},  # trims at 15 samples
    "most-frequent": {"window_size": 5},
    "markov": {"order": 2},
}


def golden_predictor(kind: str) -> OnlineMessagePredictor:
    """Two receivers, 37 messages: negative senders, sizes past 2**32."""
    params = GOLDEN_PARAMS.get(kind, {})
    predictor = OnlineMessagePredictor(2, 3, lambda: create_predictor(kind, **params))
    for step in range(37):
        size = 2**40 + step if step % 7 == 0 else 64 << (step % 4)
        predictor.observe(step % 2, step % 3 - 1, size)
    return predictor


#: ``freeze_state(golden_predictor(kind)).hex()``, recorded when stream vectors
#: were numpy int64 arrays: the bytes must not depend on what holds them.  The
#: periodicity entry was re-recorded when its configuration lost the mismatch
#: tolerance: the old bytes with each periodicity record's third config word
#: (a zero) removed.
FORMAT_4 = {
    "cycle": (
        "066f6e6c696e6502020000000000000003000000000000000501250000000000000003056379636c"
        "65000201ffffffffffffffff0206000000ffffffffffffffff010000000000000001000000000000"
        "0000000000000000000000000000000000ffffffffffffffff03056379636c650002010100000000"
        "00000002060000000000000000000000ffffffffffffffffffffffffffffffff0100000000000000"
        "0100000000000000000000000000000003056379636c650002014000000000000000020a00000000"
        "00000000010000000100000000000000010000000000004000000000000000400000000000000000"
        "010000000000000e0000000001000040000000000000001c00000000010000000100000000000003"
        "056379636c6500020123000000000100000208000000800000000000000023000000000100000002"
        "00000000000080000000000000000700000000010000800000000000000015000000000100000002"
        "000000000000"
    ),
    "last-value": (
        "066f6e6c696e65020200000000000000030000000000000005012500000000000000030a6c617374"
        "2d76616c7565000101ffffffffffffffff030a6c6173742d76616c75650001010100000000000000"
        "030a6c6173742d76616c75650001014000000000000000030a6c6173742d76616c75650001012300"
        "000000010000"
    ),
    "markov": (
        "066f6e6c696e6502020000000000000003000000000000000501250000000000000003066d61726b"
        "6f760102000000000000000202020000000000000000000000ffffffffffffffff020c000000ffff"
        "ffffffffffff01000000000000000000000000000000060000000000000001000000000000000000"
        "000000000000ffffffffffffffff06000000000000000000000000000000ffffffffffffffff0100"
        "000000000000050000000000000003066d61726b6f76010200000000000000020202000000ffffff"
        "ffffffffff0100000000000000020c0000000000000000000000ffffffffffffffff010000000000"
        "00000600000000000000ffffffffffffffff01000000000000000000000000000000050000000000"
        "000001000000000000000000000000000000ffffffffffffffff050000000000000003066d61726b"
        "6f760102000000000000000202020000000001000000000000400000000000000002240000000000"
        "00000001000000010000000000004000000000000000010000000000000000010000000000004000"
        "00000000000000010000000000000500000000000000000100000000000040000000000000000e00"
        "00000001000001000000000000004000000000000000000100000000000040000000000000000500"
        "000000000000400000000000000000010000000000001c0000000001000001000000000000004000"
        "0000000000000e00000000010000400000000000000001000000000000000e000000000100004000"
        "0000000000000001000000000000010000000000000000010000000000001c000000000100000001"
        "00000000000001000000000000001c00000000010000000100000000000040000000000000000100"
        "00000000000003066d61726b6f760102000000000000000202020000008000000000000000230000"
        "00000100000224000000800000000000000000020000000000008000000000000000050000000000"
        "00008000000000000000000200000000000015000000000100000100000000000000000200000000"
        "00008000000000000000070000000001000001000000000000000002000000000000800000000000"
        "00000002000000000000040000000000000000020000000000008000000000000000230000000001"
        "00000100000000000000800000000000000007000000000100008000000000000000010000000000"
        "00000700000000010000800000000000000000020000000000000100000000000000000200000000"
        "00001500000000010000000200000000000001000000000000001500000000010000000200000000"
        "000080000000000000000100000000000000"
    ),
    "most-frequent": (
        "066f6e6c696e65020200000000000000030000000000000005012500000000000000030d6d6f7374"
        "2d6672657175656e740105000000000000000102050000000000000000000000ffffffffffffffff"
        "01000000000000000000000000000000ffffffffffffffff030d6d6f73742d6672657175656e7401"
        "0500000000000000010205000000ffffffffffffffff01000000000000000000000000000000ffff"
        "ffffffffffff0100000000000000030d6d6f73742d6672657175656e740105000000000000000102"
        "050000001c0000000001000000010000000000004000000000000000000100000000000040000000"
        "00000000030d6d6f73742d6672657175656e74010500000000000000010205000000000200000000"
        "00008000000000000000000200000000000080000000000000002300000000010000"
    ),
    "periodicity": (
        "066f6e6c696e65020200000000000000030000000000000005012500000000000000030b70657269"
        "6f646963697479030400000000000000060000000000000001000000000000000501130000000000"
        "0000010d00000000000000010100000000000000010300000000000000020e000000000000000000"
        "0000ffffffffffffffff01000000000000000000000000000000ffffffffffffffff010000000000"
        "00000000000000000000ffffffffffffffff01000000000000000000000000000000ffffffffffff"
        "ffff01000000000000000000000000000000ffffffffffffffff030b706572696f64696369747903"
        "04000000000000000600000000000000010000000000000005011200000000000000010c00000000"
        "000000010100000000000000010300000000000000020d0000000100000000000000000000000000"
        "0000ffffffffffffffff01000000000000000000000000000000ffffffffffffffff010000000000"
        "00000000000000000000ffffffffffffffff01000000000000000000000000000000ffffffffffff"
        "ffff0100000000000000030b706572696f6469636974790304000000000000000600000000000000"
        "01000000000000000501130000000000000001050000000000000001040000000000000001060000"
        "0000000000020e000000000100000000000040000000000000000e00000000010000400000000000"
        "00000001000000000000400000000000000000010000000000004000000000000000000100000000"
        "00001c00000000010000000100000000000040000000000000000001000000000000400000000000"
        "0000030b706572696f64696369747903040000000000000006000000000000000100000000000000"
        "05011200000000000000010400000000000000010300000000000000010200000000000000020d00"
        "00000002000000000000800000000000000000020000000000008000000000000000000200000000"
        "00001500000000010000000200000000000080000000000000000002000000000000800000000000"
        "0000000200000000000080000000000000002300000000010000"
    ),
    "stride": (
        "066f6e6c696e65020200000000000000030000000000000005012500000000000000030673747269"
        "6465000201ffffffffffffffff01ffffffffffffffff030673747269646500020101000000000000"
        "00010200000000000000030673747269646500020140000000000000000140ffffffffffffff0306"
        "737472696465000201230000000001000001a3ffffffff000000"
    ),
}


def running(predictor) -> None:
    """A thawed predictor must take observations and answer queries.

    Queries name their horizon: a flipped bit may have changed the default
    one, which is configuration (a served stream is checked against its
    spec, see ``Shard.restore``)."""
    if isinstance(predictor, OnlineMessagePredictor):
        for step in range(30):
            predictor.observe(0, step % 3, 64)
        predictor.predict(0, 3)
        predictor.expects_message(0, 1, horizon=3)
    else:
        for step in range(30):
            predictor.observe(step % 3)
        predictor.predict(3)
    state_nbytes(predictor)


class TestHostileBytes:
    @given(st.binary(max_size=600))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes(self, blob):
        try:
            predictor = thaw_state(blob)
        except SnapshotError:
            return
        running(predictor)

    @pytest.fixture(scope="class")
    def frozen(self):
        blobs = []
        for kind in sorted(CONFIGS):
            predictor = OnlineMessagePredictor(1, 5, lambda: create_predictor(kind))
            for step in range(60):
                predictor.observe(0, step % 4, 64 * (step % 3))
            blobs.append(freeze_state(predictor))
        return blobs

    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_every_bit_flip_is_refused_or_runs(self, frozen, data):
        blob = bytearray(data.draw(st.sampled_from(frozen)))
        position = data.draw(st.integers(0, 8 * len(blob) - 1))
        blob[position // 8] ^= 1 << (position % 8)
        try:
            predictor = thaw_state(bytes(blob))
        except SnapshotError:
            return
        running(predictor)

    def test_truncations_and_trailing_bytes_are_refused(self, frozen):
        blob = frozen[0]
        for end in range(len(blob)):
            with pytest.raises(SnapshotError, match="truncated"):
                thaw_state(blob[:end])
        with pytest.raises(SnapshotError, match="bytes after the end"):
            thaw_state(blob + b"\0")

    @pytest.mark.parametrize("sticky", [0, 1, 5, -7])
    def test_only_a_sticky_word_of_0_or_1_thaws(self, sticky):
        predictor = create_predictor("periodicity", window_size=4, max_period=6)
        for step in range(20):
            predictor.observe(step % 3)
        state = predictor.get_state()
        forged = PredictorState("periodicity", (4, 6, sticky), state.data)
        blob = freeze_state(SimpleNamespace(get_state=lambda: forged))
        if sticky in (0, 1):
            assert freeze_state(thaw_state(blob)) == blob
        else:
            with pytest.raises(SnapshotError, match=f"sticky must be 0 or 1, got {sticky}"):
                thaw_state(blob)

    @given(CONFIGS["periodicity"], samples)
    @settings(max_examples=100, deadline=None)
    def test_every_valid_periodicity_state_refreezes_to_its_bytes(self, params, seen):
        predictor = create_predictor("periodicity", **params)
        for value in seen:
            predictor.observe(value)
        blob = freeze_state(predictor)
        assert freeze_state(thaw_state(blob)) == blob

    def test_a_kind_outside_the_closed_set_is_refused(self):
        blob = freeze_state(create_predictor("stride"))
        forged = blob.replace(b"stride", b"pickle")
        with pytest.raises(SnapshotError, match="unknown predictor kind 'pickle'"):
            thaw_state(forged)

    def test_no_pickle_under_src(self):
        sources = pathlib.Path(repro.__file__).parent.rglob("*.py")
        code = re.compile(r"^\s*(import|from)\s+pickle\b|\bpickle\.\w+\(", re.M)
        assert [path.name for path in sources if code.search(path.read_text())] == []


SIZES_SCRIPT = """
import gc, json, tracemalloc
import numpy as np
from repro.predictive.online import OnlineMessagePredictor
from repro.predictive.registry import create_predictor, predictor_names
from repro.predictive.state import state_nbytes


def traced_nbytes(build, feed, copies=8):
    for _ in range(50):  # CPython sizes a class's first instances generously
        build()
    gc.collect()
    # Empty the dict and list free lists: a recycled object predates tracing.
    drained = [{index: index} for index in range(1000)] + [[index] for index in range(1000)]
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    predictors = [build() for _ in range(copies)]
    for predictor in predictors:
        feed(predictor)
    gc.collect()
    measured = (tracemalloc.get_traced_memory()[0] - base) / copies
    tracemalloc.stop()
    return state_nbytes(predictors[0]), measured


def pair(samples, sender, size):
    def feed(predictor):
        for i in range(samples):
            predictor.observe(0, sender(i), size(i))
    return traced_nbytes(lambda: OnlineMessagePredictor(1), feed)


rng = np.random.default_rng(7)
pattern = np.where(rng.random(400) < 0.03, rng.integers(0, 12, 400), np.arange(400) % 6)
sizes = 64 * pattern + 512  # message sizes: every value a heap int
report = {
    "pair-fresh": pair(0, None, None),
    "pair-8-periodic": pair(8, lambda i: i % 6, lambda i: 512 << (i % 3)),
    "pair-30-periodic": pair(30, lambda i: i % 6, lambda i: 512 << (i % 3)),
    "pair-400-periodic": pair(400, lambda i: i % 6, lambda i: 512 << (i % 3)),
    "pair-400-never-repeating": pair(400, lambda i: i, lambda i: 64 * i + 512),
}
for name in predictor_names():
    report[name + "-400"] = traced_nbytes(
        lambda: create_predictor(name), lambda p: p.observe_many(sizes.tolist())
    )
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def measured_sizes():
    """(formula, tracemalloc) per case, from a fresh process: what CPython
    allocates for an instance depends a little on what the process did before."""
    env = dict(os.environ)
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", SIZES_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(result.stdout)


@pytest.mark.parametrize(
    "case",
    ["pair-fresh", "pair-8-periodic", "pair-30-periodic", "pair-400-periodic",
     "pair-400-never-repeating", *(name + "-400" for name in predictor_names())],
)
def test_size_formula_is_within_15_percent_of_tracemalloc(measured_sizes, case):
    formula, measured = measured_sizes[case]
    assert 0.85 * measured <= formula <= 1.15 * measured, (formula, measured)
