"""Tests for the Dynamic Periodicity Detector (repro.core.dpd)."""

import numpy as np
import pytest

from repro.core.dpd import DynamicPeriodicityDetector
from repro.core.predictor import PeriodicityPredictor


def feed(detector, values):
    for value in values:
        detector.observe(int(value))
    return detector


class TestConstruction:
    def test_invalid_window(self):
        with pytest.raises(ValueError):
            DynamicPeriodicityDetector(window_size=0)

    def test_invalid_max_period(self):
        with pytest.raises(ValueError):
            DynamicPeriodicityDetector(window_size=8, max_period=0)

    def test_max_period_is_bounded_before_a_lane_mask_is_built(self):
        assert DynamicPeriodicityDetector(window_size=8, max_period=1 << 16).max_period == 1 << 16
        with pytest.raises(ValueError, match="max_period must be in"):
            DynamicPeriodicityDetector(window_size=8, max_period=(1 << 16) + 1)

    def test_max_period_defaults_to_window(self):
        detector = DynamicPeriodicityDetector(window_size=10)
        assert detector.max_period == 10

    def test_max_period_may_exceed_window(self):
        detector = DynamicPeriodicityDetector(window_size=8, max_period=64)
        assert detector.max_period == 64


class TestDetection:
    @pytest.mark.parametrize("period", [1, 2, 3, 5, 7, 18])
    def test_detects_exact_period(self, period):
        pattern = list(range(period))
        stream = pattern * 10
        detector = feed(DynamicPeriodicityDetector(window_size=2 * period + 2), stream)
        assert detector.detect().period == period

    def test_detects_smallest_period(self):
        # Stream with period 4 is also periodic with 8; the smallest is reported.
        stream = [1, 2, 3, 4] * 20
        detector = feed(DynamicPeriodicityDetector(window_size=16), stream)
        assert detector.detect().period == 4

    def test_constant_stream_has_period_one(self):
        detector = feed(DynamicPeriodicityDetector(window_size=8), [7] * 30)
        assert detector.detect().period == 1

    def test_no_period_in_random_stream(self):
        rng = np.random.default_rng(0)
        stream = rng.integers(0, 1000, size=200)
        detector = feed(DynamicPeriodicityDetector(window_size=16, max_period=32), stream)
        assert detector.detect().period is None

    def test_not_enough_history_returns_none(self):
        detector = feed(DynamicPeriodicityDetector(window_size=8), [1, 2, 3])
        result = detector.detect()
        assert result.period is None
        assert result.distances.size == 0

    def test_period_longer_than_window_detected_with_large_max_period(self):
        period = 40
        pattern = list(range(period))
        stream = pattern * 5
        detector = feed(
            DynamicPeriodicityDetector(window_size=16, max_period=64), stream
        )
        assert detector.detect().period == period

    def test_period_beyond_max_period_not_detected(self):
        pattern = list(range(20))
        detector = feed(
            DynamicPeriodicityDetector(window_size=8, max_period=10), pattern * 6
        )
        assert detector.detect().period is None

    def test_perturbation_breaks_exact_detection(self):
        stream = [1, 2, 3, 4] * 10
        stream[30] = 99
        detector = feed(DynamicPeriodicityDetector(window_size=16, max_period=16), stream)
        assert detector.detect().period is None

    def test_exact_detection_recovers_once_the_perturbation_leaves(self):
        # Sample 30 sits in the window until step 45 and is the lagged copy
        # for delay 4 until step 49; from step 50 on d(4) is 0 again.
        stream = [1, 2, 3, 4] * 10
        stream[30] = 99
        detector = feed(DynamicPeriodicityDetector(window_size=16, max_period=16), stream)
        feed(detector, [1, 2, 3, 4] * 2 + [1, 2])
        assert detector.detect().period is None
        feed(detector, [3])
        assert detector.detect().period == 4


class TestDistances:
    def test_distance_values_match_equation(self):
        # Stream 1,2,1,2,...: d(2) == 0 and d(1) == window_size (all differ).
        detector = feed(DynamicPeriodicityDetector(window_size=6, max_period=4), [1, 2] * 8)
        distances = detector.distances()
        assert distances[1] == 0  # m=2
        assert distances[0] == 6  # m=1: every position differs
        assert distances[3] == 0  # m=4 is also a period

    def test_distances_bounded_by_window(self):
        rng = np.random.default_rng(1)
        detector = feed(
            DynamicPeriodicityDetector(window_size=12, max_period=12),
            rng.integers(0, 5, size=100),
        )
        distances = detector.distances()
        assert distances.size == 12
        assert (distances >= 0).all() and (distances <= 12).all()

    def test_distances_grow_with_history(self):
        detector = DynamicPeriodicityDetector(window_size=4, max_period=8)
        feed(detector, [1, 2, 3, 4, 5])
        assert detector.distances().size == 1
        feed(detector, [6, 7, 8])
        assert detector.distances().size == 4


class TestStateManagement:
    def test_samples_seen(self):
        detector = feed(DynamicPeriodicityDetector(window_size=4), range(9))
        assert detector.samples_seen == 9

    def test_history_returns_chronological_copy(self):
        detector = feed(DynamicPeriodicityDetector(window_size=3, max_period=3), [1, 2, 3, 4])
        history = detector.history()
        assert history.tolist() == [1, 2, 3, 4]

    def test_detect_result_fields(self):
        detector = feed(DynamicPeriodicityDetector(window_size=4), [5, 6] * 10)
        result = detector.detect()
        assert result.periodic is True
        assert result.samples_seen == 20


def same_state(left: DynamicPeriodicityDetector, right: DynamicPeriodicityDetector) -> None:
    assert left.history().tolist() == right.history().tolist()
    assert (left.samples_seen, left.retained) == (right.samples_seen, right.retained)
    np.testing.assert_array_equal(left.distances(), right.distances())
    assert left.current_period() == right.current_period()


class TestRetainedHistory:
    """The history is the last ``N + M`` samples, whatever the trims did."""

    def test_empty(self):
        detector = DynamicPeriodicityDetector(window_size=4, max_period=3)
        assert detector.retained == 0 and detector.samples_seen == 0
        assert detector.history().tolist() == []
        assert detector.current_period() is None

    def test_first_window_is_kept_before_any_delay_is_evaluable(self):
        detector = feed(DynamicPeriodicityDetector(window_size=4, max_period=3), [1, 2, 3])
        assert detector.history().tolist() == [1, 2, 3]
        assert detector.retained == 3
        assert detector.distances().size == 0

    def test_keeps_the_most_recent_window_plus_max_period(self):
        detector = feed(DynamicPeriodicityDetector(window_size=3, max_period=2), range(20))
        assert detector.history().tolist() == [15, 16, 17, 18, 19]
        assert detector.retained == 5
        assert detector.samples_seen == 20

    def test_matches_list_reference_across_trims(self):
        detector = DynamicPeriodicityDetector(window_size=3, max_period=4)
        reference: list[int] = []
        for i in range(80):
            value = (i * 37) % 11
            detector.observe(value)
            reference.append(value)
            assert detector.history().tolist() == reference[-7:]
            for n in range(1, detector.retained + 1):
                assert detector.recent(n).tolist() == reference[-n:]

    def test_keeps_large_and_negative_values(self):
        values = [2**40, -(2**40), 2**62, -1]
        detector = feed(DynamicPeriodicityDetector(window_size=2, max_period=2), values)
        assert detector.history().dtype == np.int64
        assert detector.history().tolist() == values

    def test_recent_and_history_are_independent_copies(self):
        detector = feed(DynamicPeriodicityDetector(window_size=2, max_period=2), [1, 2, 3, 4])
        tail = detector.recent(2)
        tail[0] = 99
        snapshot = detector.history()
        snapshot[0] = 99
        assert detector.history().tolist() == [1, 2, 3, 4]


class TestBatchInputs:
    STREAM = [(i * 37) % 5 for i in range(40)]

    @pytest.mark.parametrize("factory", [list, tuple, np.array, iter])
    def test_batch_observe_input_types(self, factory):
        looped = feed(DynamicPeriodicityDetector(window_size=4, max_period=6), self.STREAM)
        batched = DynamicPeriodicityDetector(window_size=4, max_period=6)
        batched.batch_observe(factory(self.STREAM))
        same_state(batched, looped)

    @pytest.mark.parametrize("factory", [list, tuple, np.array, iter])
    def test_predictor_observe_many_input_types(self, factory):
        looped = PeriodicityPredictor(window_size=4, max_period=6)
        for value in self.STREAM:
            looped.observe(value)
        batched = PeriodicityPredictor(window_size=4, max_period=6)
        batched.observe_many(factory(self.STREAM))
        same_state(batched._dpd, looped._dpd)
        assert (batched.detections, batched.period_changes) == (looped.detections, looped.period_changes)
        assert batched.predict(3) == looped.predict(3)

    def test_batch_longer_than_history_keeps_tail(self):
        detector = DynamicPeriodicityDetector(window_size=3, max_period=4)
        detector.batch_observe(np.arange(100))
        assert detector.history().tolist() == list(range(93, 100))
        assert detector.samples_seen == 100
        assert detector.retained == 7

    def test_batch_matches_observe_across_trims(self):
        rng = np.random.default_rng(5)
        for window, max_period in ((1, 1), (1, 2), (2, 3), (5, 3)):
            for sizes in ([3, 4, 2], [8, 1], [1] * 9, [0, 5, 0, 7], [20, 30]):
                batched = DynamicPeriodicityDetector(window, max_period)
                looped = DynamicPeriodicityDetector(window, max_period)
                for size in sizes:
                    chunk = rng.integers(0, 4, size=size)
                    batched.batch_observe(chunk)
                    feed(looped, chunk)
                    same_state(batched, looped)
