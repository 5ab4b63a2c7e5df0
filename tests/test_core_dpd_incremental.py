"""Equivalence tests for the incremental DPD engine (repro.core.dpd).

The window's AND of match masks, the batch path, and the predictor's
``observe_many`` must all agree with the counts ``d(m)`` scanned from the
history (:meth:`DynamicPeriodicityDetector.distances`) and with a sequential
``observe`` loop, after every single append — and with the answers the
``(M, k)`` matrix kernel gave before the counters became bit lanes (the
golden digests below were recorded from it).
"""

import copy
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dpd import DynamicPeriodicityDetector
from repro.core.predictor import PeriodicityPredictor
from repro.predictive.state import freeze_state, state_nbytes

values = st.integers(min_value=0, max_value=5)


def assert_window_matches(detector: DynamicPeriodicityDetector) -> None:
    """The smallest evaluable ``m`` with ``d(m) = 0`` is the detected period, and
    the window's AND has exactly the lanes of the evaluable delays with ``d(m) = 0``."""
    distances = detector.distances()
    assert distances.dtype == np.int64
    accepted = np.nonzero(distances == 0)[0]
    assert detector.current_period() == (int(accepted[0]) + 1 if accepted.size else None)
    assert detector.detect().period == detector.current_period()
    assert bool(detector._front) == bool(distances.size)
    if distances.size:
        window = detector._front[-1] & detector._back_and
        assert window == sum(1 << (detector.max_period - 1 - int(m)) for m in accepted)


class TestWindowMatchesTheDistances:
    @given(
        window=st.integers(1, 16),
        max_period=st.integers(1, 32),
        data=st.lists(values, max_size=160),
    )
    @settings(max_examples=80, deadline=None)
    def test_window_matches_the_distances_after_every_append(self, window, max_period, data):
        detector = DynamicPeriodicityDetector(window, max_period)
        for value in data:
            period = detector.observe(value)
            assert period == detector.current_period()
            assert_window_matches(detector)

    @pytest.mark.parametrize(
        "window, max_period",
        [(24, 256), (6, 12), (32, 16), (8, 64), (12, 3), (6, 1), (1, 8), (1, 1), (24, 1)],
    )
    def test_current_period_is_the_smallest_zero_distance(self, window, max_period):
        """The served shapes, then N > M, M = 1 and N = 1, across several trims."""
        detector = DynamicPeriodicityDetector(window, max_period)
        for value in noisy_periodic_stream(3 * (window + max_period) + 60, seed=window).tolist():
            assert detector.observe(value) == detector.current_period()
            assert_window_matches(detector)

    @given(
        window=st.integers(1, 12),
        max_period=st.integers(1, 24),
        data=st.lists(values, max_size=120),
        split=st.integers(0, 120),
    )
    @settings(max_examples=80, deadline=None)
    def test_batch_observe_equals_sequential(self, window, max_period, data, split):
        sequential = DynamicPeriodicityDetector(window, max_period)
        step_periods = []
        for value in data:
            sequential.observe(value)
            period = sequential.current_period()
            step_periods.append(0 if period is None else period)

        batched = DynamicPeriodicityDetector(window, max_period)
        split = min(split, len(data))
        first = batched.batch_observe(data[:split], return_periods=True)
        second = batched.batch_observe(data[split:], return_periods=True)
        np.testing.assert_array_equal(
            np.concatenate((first, second)),
            np.asarray(step_periods, dtype=np.int64),
        )
        np.testing.assert_array_equal(batched.distances(), sequential.distances())
        assert batched.samples_seen == sequential.samples_seen


class TestEdgeCaseRegressions:
    def test_not_yet_full_buffer_matches_naive_at_every_prefix(self):
        rng = np.random.default_rng(42)
        stream = rng.integers(0, 3, size=30)
        # Capacity is 24, so the 30-sample run covers growing, just-full and
        # freshly wrapped states.
        detector = DynamicPeriodicityDetector(window_size=8, max_period=16)
        for value in stream:
            detector.observe(int(value))
            assert_window_matches(detector)

    def test_wraparound_matches_naive_long_after_buffer_full(self):
        rng = np.random.default_rng(43)
        detector = DynamicPeriodicityDetector(window_size=6, max_period=10)
        # capacity is 16; run 10x longer so the ring wraps many times
        for value in rng.integers(0, 2, size=160):
            detector.observe(int(value))
            assert_window_matches(detector)

    def test_window_larger_than_max_period(self):
        detector = DynamicPeriodicityDetector(window_size=12, max_period=3)
        for value in [1, 2, 3] * 20:
            detector.observe(value)
            assert_window_matches(detector)
        assert detector.detect().period == 3

    def test_max_period_larger_than_window(self):
        detector = DynamicPeriodicityDetector(window_size=4, max_period=30)
        for value in list(range(10)) * 8:
            detector.observe(value)
            assert_window_matches(detector)
        assert detector.detect().period == 10

    def test_batch_observe_empty_input(self):
        detector = DynamicPeriodicityDetector(window_size=4)
        assert detector.batch_observe([], return_periods=True).size == 0
        assert detector.batch_observe([]) is None
        assert detector.samples_seen == 0

    def test_batch_observe_chunked_matches_single_shot(self):
        rng = np.random.default_rng(44)
        stream = rng.integers(0, 2, size=200)
        chunked = DynamicPeriodicityDetector(window_size=5, max_period=9)
        chunked_periods = np.concatenate(
            [chunked.batch_observe(stream[i : i + 16], return_periods=True) for i in range(0, 200, 16)]
        )
        single = DynamicPeriodicityDetector(window_size=5, max_period=9)
        single_periods = single.batch_observe(stream, return_periods=True)
        np.testing.assert_array_equal(chunked_periods, single_periods)
        np.testing.assert_array_equal(chunked.distances(), single.distances())
        np.testing.assert_array_equal(chunked.history(), single.history())

    def test_perturbation_withheld_then_recovered_by_batch_and_incremental(self):
        # Exact match: one wrong sample withholds period 4 until it has left
        # both the window and its lagged copy; both paths agree on every step.
        stream = [1, 2, 3, 4] * 10
        stream[17] = 99
        sequential = DynamicPeriodicityDetector(8, 8)
        step_periods = []
        for value in stream:
            sequential.observe(value)
            assert_window_matches(sequential)
            step_periods.append(sequential.current_period() or 0)
        batched = DynamicPeriodicityDetector(8, 8)
        periods = batched.batch_observe(stream, return_periods=True)
        assert periods.tolist() == step_periods
        assert step_periods[17 : 17 + 8 + 4] == [0] * 12
        assert step_periods[17 + 8 + 4 :] == [4] * (len(stream) - 29)
        assert sequential.current_period() == 4


def noisy_periodic_stream(length: int, seed: int) -> np.ndarray:
    """Period 6, then 12, then 6 again, with ~3% of the samples perturbed."""
    rng = np.random.default_rng(seed)
    third = length // 3
    clean = np.concatenate(
        (
            np.resize(rng.integers(0, 9, size=6), third),
            np.resize(rng.integers(0, 9, size=12), third),
            np.resize(rng.integers(0, 9, size=6), length - 2 * third),
        )
    )
    noise = rng.random(length) < 0.03
    return np.where(noise, rng.integers(0, 9, size=length), clean).astype(np.int64)


class TestManyWaySplitAtServedConfiguration:
    """Runs of 1, 2, 8 and 64 (what ``repro serve`` coalesces) == the loop."""

    @pytest.mark.parametrize("window, max_period", [(24, 256), (32, 16), (8, 64)])
    @pytest.mark.parametrize("sticky", [True, False])
    def test_every_run_boundary_matches_the_sequential_loop(self, window, max_period, sticky):
        stream = noisy_periodic_stream(1200, seed=window)
        sequential = PeriodicityPredictor(window, max_period, sticky)
        reference = []  # after sample j: (step period, detections, changes, current)
        for value in stream:
            sequential.observe(int(value))
            reference.append(
                (
                    sequential._dpd.current_period() or 0,
                    sequential.detections,
                    sequential.period_changes,
                    sequential.current_period,
                )
            )
        assert reference[-1][1] > 0 and reference[-1][2] > 1, "stream must exercise detection"

        capacity = window + max_period
        # One run inside the ring-filling phase, one that straddles the moment
        # the ring fills, then the served run lengths over a full ring.
        lengths = itertools.chain([capacity - 7, 19], itertools.cycle([1, 2, 8, 64]))
        batched = PeriodicityPredictor(window, max_period, sticky)
        detector = DynamicPeriodicityDetector(window, max_period)
        position = 0
        while position < len(stream):
            run = stream[position : position + next(lengths)]
            batched.observe_many(run.tolist())
            periods = detector.batch_observe(run, return_periods=True)
            position += len(run)
            np.testing.assert_array_equal(
                periods, [step[0] for step in reference[position - len(run) : position]]
            )
            assert_window_matches(detector)
            assert_window_matches(batched._dpd)
            assert detector.current_period() == (reference[position - 1][0] or None)
            assert (
                batched.detections,
                batched.period_changes,
                batched.current_period,
            ) == reference[position - 1][1:]
        assert batched.predict(5) == sequential.predict(5)


def test_small_batch_allocates_kilobytes_not_the_whole_history():
    """An 8-sample batch on a full history is a few lane ops per sample.

    A clock-free cost guard: any path that touches (M x (N + M + k)) cells
    per call takes about 0.5 MB at the served configuration.  The measured
    batch includes a trim of the history and its masks (at sample 700).
    """
    stream = noisy_periodic_stream(1000, seed=5).tolist()
    predictor = PeriodicityPredictor(24, 256)
    predictor.observe_many(stream[:688])
    predictor.observe_many(stream[688:696])  # warm every lazy import / cache
    tracemalloc.start()
    try:
        predictor.observe_many(stream[696:704])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, f"8-sample observe_many peaked at {peak} bytes"


def full_state(predictor: PeriodicityPredictor):
    """Everything ``observe_many`` may touch, read through the public API."""
    dpd = predictor._dpd
    return (
        freeze_state(predictor),
        dpd.distances().tolist(),
        dpd.history().tolist(),
        (dpd.retained, dpd.samples_seen),
        predictor.detections,
        predictor.period_changes,
        predictor.current_period,
        predictor.predict(5),
    )


def young_state(predictor: PeriodicityPredictor):
    """:func:`full_state`, with the window's AND checked against the distances."""
    assert_window_matches(predictor._dpd)
    return full_state(predictor)


class TestFirstWindowIsAnAppend:
    """A run that ends inside a stream's first window is one ``extend`` of the
    history; the sample after it (delay 1 becomes evaluable) goes through ``observe``."""

    SHAPES = [(24, 256), (6, 12), (64, 64)]
    FORMS = {"list": list, "tuple": tuple, "array": lambda run: np.array(run, dtype=np.int64)}

    @staticmethod
    def twins(window, max_period, sticky):
        return (
            PeriodicityPredictor(window, max_period, sticky=sticky),
            PeriodicityPredictor(window, max_period, sticky=sticky),
        )

    @staticmethod
    def feed_both(batched, looped, run, form):
        batched.observe_many(form(run))
        for value in run:
            looped.observe(value)
        assert young_state(batched) == young_state(looped)

    @pytest.mark.parametrize("window, max_period", SHAPES)
    @pytest.mark.parametrize("sticky", [True, False])
    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_runs_ending_around_the_window_equal_the_loop(self, window, max_period, sticky, form):
        stream = [3, 1, 2] * (window + 8)  # periodic: detection starts right after the window
        for first in (0, 1, window // 2):
            for end in (window - 1, window, window + 1, window + 3):
                batched, looped = self.twins(window, max_period, sticky)
                self.feed_both(batched, looped, stream[:first], self.FORMS[form])
                self.feed_both(batched, looped, stream[first:end], self.FORMS[form])
                assert batched._dpd.distances().size == max(0, end - window)
                self.feed_both(batched, looped, [], self.FORMS[form])
                self.feed_both(batched, looped, stream[end : end + 8], self.FORMS[form])
                # A longer run, still inside the history's first N + M samples.
                self.feed_both(batched, looped, stream[end + 8 : end + 21], self.FORMS[form])
                assert batched.detections > 0

    def test_only_samples_inside_the_window_skip_observe(self, monkeypatch):
        observed = []
        observe = DynamicPeriodicityDetector.observe

        def counting_observe(self, value):
            observed.append(int(value))
            observe(self, value)

        monkeypatch.setattr(DynamicPeriodicityDetector, "observe", counting_observe)
        predictor = PeriodicityPredictor(24, 256)
        predictor.observe_many(list(range(8)))
        predictor.observe_many(list(range(8, 16)))
        predictor.observe_many(list(range(16, 24)))  # ends exactly at the window
        assert observed == [] and predictor.samples_seen == 24
        predictor.observe_many([24])  # makes delay 1 evaluable
        assert observed == [24] and predictor._dpd.distances().size == 1
        fresh = PeriodicityPredictor(24, 256)
        fresh.observe_many(list(range(40)))  # a longer run: the prefix is appended too
        assert observed == [24, *range(24, 40)]
        detector = DynamicPeriodicityDetector(24, 256)
        periods = detector.batch_observe(list(range(30)), return_periods=True)
        assert observed[-6:] == list(range(24, 30)) and periods.tolist() == [0] * 30


class TestObserveManyEqualsTheLoop:
    """Every run length is the observe loop: one path, no crossover."""

    @pytest.mark.parametrize("window, max_period", [(24, 256), (6, 12), (32, 16)])
    @pytest.mark.parametrize("sticky", [True, False])
    def test_every_run_length_from_full_history_equals_the_loop(self, window, max_period, sticky):
        capacity = window + max_period
        length = 3 * (capacity + 120)
        stream = noisy_periodic_stream(length, seed=max_period).tolist()
        # Full-history starting points: steady state, and just before each of
        # the stream's two period changes (so the run carries one).
        for start in (capacity + 20, 2 * (length // 3) - 5, length - 45):
            base = PeriodicityPredictor(window, max_period, sticky)
            for value in stream[:start]:
                base.observe(value)
            assert base._dpd.retained == capacity
            for run in range(1, 41):
                looped, batched = copy.deepcopy(base), copy.deepcopy(base)
                for value in stream[start : start + run]:
                    looped.observe(value)
                batched.observe_many(stream[start : start + run])
                assert full_state(batched) == full_state(looped), (start, run)
        assert base.detections > 0 and base.period_changes > 1, "stream must exercise detection"


#: sha256 of ``repr((current_period, detections, period_changes, predict(5)))``
#: after every run of ``noisy_periodic_stream(5000, seed=25)``, recorded from
#: the ``(M, k)`` matrix kernel the bit lanes replaced.  Run length 1 is the
#: per-step digest.
GOLDEN = {
    (24, 256, True): {
        1: "fc8d76ad653af5e896de99077225c8b4b371ba7385d5de07b3252795ee4e47b4",
        2: "948cd6a3dbec1ed1e8720636d35575969426c006b3f7de30c8325472b37ac388",
        8: "3f4cebbd98b6ac3b4290bda085899f2c8c249f2df487046560dbd515834d4206",
        64: "d7bb3f6cec656b99cefa1481482b36d42ffda8303fa4f7abd9adc3893001e8ae",
    },
    (32, 16, False): {
        1: "4a0baf1b097e4a3fb80a90d88683db2958ccabadac4f53aac271266fd250f595",
        2: "cd26e8d6e7e80b4bb8e35bc5a83f9cdebbc804b19b5b6fdf6f993cd9b6f5f348",
        8: "ea9dce015b3e65b3d10810c71da55421722f7fd7207c9382522ee2ffbb58621a",
        64: "3d5c6a9740a92e6cc2a8796e11a294fcd734fd699e5b5f4830bd8d06253a61ad",
    },
    (6, 12, False): {
        1: "806cb09e721396b00198a3a1ba99582a362028ad99cb8f7ca960b062fee8e0ef",
        2: "d3bc3484934216ce539eb68a1d12d0469edbfc95e3af1b27bc95cd3b7efc9d2d",
        8: "edc785c5826586838639458013653e990d75a553aa5449b4ecdc521626012165",
        64: "165a881d6a960a89e6b135e3cc28c8495d6bd137c6cc0e64c63eeba8b77a9a98",
    },
}


class TestGoldenDigests:
    @staticmethod
    def digest(config, run, feed):
        predictor = PeriodicityPredictor(*config)
        stream = noisy_periodic_stream(5000, seed=25).tolist()
        digest = hashlib.sha256()
        for start in range(0, len(stream), run):
            feed(predictor, stream[start : start + run])
            step = (
                predictor.current_period,
                predictor.detections,
                predictor.period_changes,
                predictor.predict(5),
            )
            digest.update(repr(step).encode() + b"\n")
        return digest.hexdigest()

    @pytest.mark.parametrize("config", sorted(GOLDEN))
    def test_observe_reproduces_the_kernel_per_step(self, config):
        observe = lambda predictor, run: predictor.observe(run[0])
        assert self.digest(config, 1, observe) == GOLDEN[config][1]

    @pytest.mark.parametrize("config", sorted(GOLDEN))
    @pytest.mark.parametrize("run", [1, 2, 8, 64])
    def test_observe_many_reproduces_the_kernel(self, config, run):
        observe_many = lambda predictor, values: predictor.observe_many(values)
        assert self.digest(config, run, observe_many) == GOLDEN[config][run]


class TestStateStaysBounded:
    """History and masks are trimmed: the state cycles, it does not grow."""

    @staticmethod
    def largest_over_a_trim_cycle(predictor, stream):
        sizes = []
        for value in stream:
            predictor.observe(value)
            sizes.append(state_nbytes(predictor))
        return max(sizes)

    def test_all_distinct_stream_is_bounded(self):
        predictor = PeriodicityPredictor(24, 256)
        for value in range(5000):
            predictor.observe(value)
        early = self.largest_over_a_trim_cycle(predictor, range(5000, 5280))
        for value in range(5280, 50000):
            predictor.observe(value)
        late = self.largest_over_a_trim_cycle(predictor, range(50000, 50280))
        assert early == late <= 64 * 1024

    def test_periodic_stream_is_smaller_than_the_ring_was(self):
        predictor = PeriodicityPredictor(24, 256)
        stream = [3, 1, 4, 1, 5, 9] * 900
        predictor.observe_many(stream[:5000])
        assert self.largest_over_a_trim_cycle(predictor, stream[5000:5280]) <= 9026


class TestPredictorObserveMany:
    @given(
        window=st.integers(1, 10),
        max_period=st.integers(1, 20),
        sticky=st.booleans(),
        data=st.lists(values, max_size=100),
        split=st.integers(0, 100),
    )
    @settings(max_examples=80, deadline=None)
    def test_observe_many_matches_sequential_bookkeeping(
        self, window, max_period, sticky, data, split
    ):
        sequential = PeriodicityPredictor(window, max_period, sticky=sticky)
        for value in data:
            sequential.observe(value)

        batched = PeriodicityPredictor(window, max_period, sticky=sticky)
        split = min(split, len(data))
        batched.observe_many(data[:split])
        batched.observe_many(data[split:])

        assert batched.detections == sequential.detections
        assert batched.period_changes == sequential.period_changes
        assert batched.current_period == sequential.current_period
        assert batched.predict(6) == sequential.predict(6)


def window_stacks(detector: DynamicPeriodicityDetector):
    """The front's suffix ANDs, which of them share one int object, the count
    of distinct ints, and the back's AND: the window's front/back split."""
    front = detector._front
    shared = [newer is older for newer, older in zip(front, front[1:])]
    return front, shared, detector._front_ints, detector._back_and


def assert_same_detector(rebuilt: DynamicPeriodicityDetector, live: DynamicPeriodicityDetector):
    assert rebuilt._masks == live._masks
    assert window_stacks(rebuilt) == window_stacks(live)
    assert len(set(map(id, live._front))) == live._front_ints
    assert rebuilt.nbytes == live.nbytes
    assert rebuilt.stored_history().tolist() == live.stored_history().tolist()
    assert rebuilt.samples_seen == live.samples_seen


class TestRebuildFromHistory:
    """``samples_seen`` and the stored history are the whole detector: the
    rebuilt masks and window stacks equal the live ones, and stay equal."""

    STREAMS = {
        "periodic-30": [3, 1, 4, 1, 5, 9] * 5,
        "periodic-400": [3, 1, 4, 1, 5, 9] * 67,
        "noisy-400": noisy_periodic_stream(400, seed=3).tolist(),
        "distinct-400": list(range(400)),
        "distinct-5000": list(range(5000)),
        # A byte of the words above the first tells the values apart.
        "high-byte-400": [v << 40 for v in (1, 2, 3, 5, 2, 1)] * 67,
        # No one byte does: each sample's value index is its code.
        "sizes-400": [64, 512, 4096, 16384, 65536, 2**40 + 64, -1, -(2**63)] * 50,
    }

    @pytest.mark.parametrize("window, max_period", [(24, 256), (6, 12)])
    @pytest.mark.parametrize("name", sorted(STREAMS))
    def test_rebuilt_detector_equals_the_live_one(self, name, window, max_period):
        live = DynamicPeriodicityDetector(window, max_period)
        for value in self.STREAMS[name]:
            live.observe(value)
        rebuilt = DynamicPeriodicityDetector.from_history(
            window, max_period, live.samples_seen, live.stored_history()
        )
        assert_same_detector(rebuilt, live)
        for value in (7, 7, 1):
            live.observe(value)
            rebuilt.observe(value)
            assert_same_detector(rebuilt, live)
            assert rebuilt.current_period() == live.current_period()

    @given(
        window=st.integers(1, 12),
        max_period=st.integers(1, 24),
        data=st.lists(
            st.integers(0, 80) | st.sampled_from([-1, 512, 2**40, 2**63 - 1, -(2**63)]),
            max_size=140,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_prefix_rebuilds(self, window, max_period, data):
        live = DynamicPeriodicityDetector(window, max_period)
        for value in data:
            live.observe(value)
            rebuilt = DynamicPeriodicityDetector.from_history(
                window, max_period, live.samples_seen, live.stored_history()
            )
            assert_same_detector(rebuilt, live)
            assert_window_matches(rebuilt)

    def test_a_history_of_the_wrong_length_is_refused(self):
        live = DynamicPeriodicityDetector(4, 4)
        for value in range(9):
            live.observe(value)
        with pytest.raises(ValueError, match="store 9, got 8"):
            DynamicPeriodicityDetector.from_history(4, 4, 9, live.stored_history()[1:])
