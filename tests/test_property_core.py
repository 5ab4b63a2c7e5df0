"""Property-based tests (hypothesis) for the predictor core data structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dpd import DynamicPeriodicityDetector
from repro.core.evaluation import evaluate_stream
from repro.core.predictor import PeriodicityPredictor

values = st.integers(min_value=0, max_value=1_000_000)


class TestHistoryProperties:
    @given(
        window=st.integers(1, 16),
        max_period=st.integers(1, 16),
        data=st.lists(values, max_size=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_list_tail(self, window, max_period, data):
        """The history always equals the last ``N + M`` observed values."""
        detector = DynamicPeriodicityDetector(window, max_period)
        for value in data:
            detector.observe(value)
        capacity = window + max_period
        assert detector.history().tolist() == data[-capacity:]
        assert detector.retained == min(len(data), capacity)
        assert detector.samples_seen == len(data)

    @given(
        window=st.integers(1, 8),
        max_period=st.integers(1, 8),
        data=st.lists(values, min_size=1, max_size=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_recent_matches_reference(self, window, max_period, data):
        detector = DynamicPeriodicityDetector(window, max_period)
        detector.batch_observe(data)
        for n in range(1, detector.retained + 1):
            assert detector.recent(n).tolist() == data[-n:]

    @given(
        window=st.integers(1, 8),
        max_period=st.integers(1, 16),
        data=st.lists(st.integers(0, 3), max_size=150),
        split=st.integers(0, 150),
    )
    @settings(max_examples=40, deadline=None)
    def test_split_observe_many_equals_the_loop(self, window, max_period, data, split):
        looped = PeriodicityPredictor(window, max_period)
        for value in data:
            looped.observe(value)
        batched = PeriodicityPredictor(window, max_period)
        batched.observe_many(data[:split])
        batched.observe_many(data[split:])
        assert batched._dpd.history().tolist() == looped._dpd.history().tolist()
        assert (batched.detections, batched.period_changes, batched.current_period) == (
            looped.detections,
            looped.period_changes,
            looped.current_period,
        )
        assert batched.predict(4) == looped.predict(4)


class TestDPDProperties:
    @given(
        pattern=st.lists(values, min_size=1, max_size=12),
        repetitions=st.integers(4, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_periodic_stream_is_detected_with_divisor_period(self, pattern, repetitions):
        """On an exactly periodic stream the DPD finds a period dividing len(pattern)."""
        stream = pattern * repetitions
        window = 2 * len(pattern)
        detector = DynamicPeriodicityDetector(window_size=window, max_period=window)
        for value in stream:
            detector.observe(value)
        result = detector.detect()
        if len(stream) >= window + len(pattern):
            assert result.periodic
            assert len(pattern) % result.period == 0

    @given(
        pattern=st.lists(values, min_size=1, max_size=10),
        repetitions=st.integers(4, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_true_period_always_has_zero_distance(self, pattern, repetitions):
        """Equation (1) yields d(m) = 0 at the construction period of the stream.

        Additionally, every delay reported as zero must really leave the
        comparison window unchanged when the stream is shifted by it.
        """
        stream = pattern * repetitions
        window = len(pattern) * 2
        detector = DynamicPeriodicityDetector(window_size=window, max_period=window)
        for value in stream:
            detector.observe(value)
        distances = detector.distances()
        if distances.size >= len(pattern):
            assert distances[len(pattern) - 1] == 0
        history = detector.history().tolist()
        recent = history[-window:]
        for index, distance in enumerate(distances):
            m = index + 1
            shifted = history[-window - m : -m]
            assert (distance == 0) == (shifted == recent)

    @given(data=st.lists(values, min_size=0, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_distances_always_bounded_by_window(self, data):
        detector = DynamicPeriodicityDetector(window_size=16, max_period=32)
        for value in data:
            detector.observe(value)
        distances = detector.distances()
        assert (distances >= 0).all()
        assert (distances <= 16).all()


class TestPredictorProperties:
    @given(
        pattern=st.lists(values, min_size=1, max_size=8),
        repetitions=st.integers(6, 12),
        horizon=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_predictions_replay_the_pattern_once_learned(self, pattern, repetitions, horizon):
        stream = pattern * repetitions
        predictor = PeriodicityPredictor(window_size=2 * len(pattern), max_period=2 * len(pattern))
        predictor.observe_many(stream)
        if predictor.current_period is None:
            return  # stream too short to learn; nothing to check
        predictions = predictor.predict(horizon)
        expected = [pattern[(len(stream) + k) % len(pattern)] for k in range(horizon)]
        assert predictions == expected

    @given(
        pattern=st.lists(values, min_size=1, max_size=6),
        repetitions=st.integers(8, 16),
    )
    @settings(max_examples=40, deadline=None)
    def test_accuracy_high_on_long_periodic_streams(self, pattern, repetitions):
        stream = pattern * repetitions
        result = evaluate_stream(
            stream,
            lambda: PeriodicityPredictor(window_size=2 * len(pattern)),
            horizon=3,
        )
        # Everything after the learning prefix must be predicted correctly.
        learning = 3 * len(pattern)
        expected_floor = max(0.0, 1.0 - (learning + 1) / len(stream))
        assert result.accuracy(1) >= expected_floor - 1e-9

    @given(data=st.lists(values, min_size=0, max_size=100), horizon=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_predict_always_returns_horizon_entries(self, data, horizon):
        predictor = PeriodicityPredictor(window_size=8, max_period=16)
        predictor.observe_many(data)
        assert len(predictor.predict(horizon)) == horizon


class TestEvaluationProperties:
    @given(data=st.lists(st.integers(0, 5), min_size=0, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_hits_never_exceed_attempts(self, data):
        result = evaluate_stream(
            data, lambda: PeriodicityPredictor(window_size=8, max_period=16), horizon=4
        )
        assert (result.hits <= result.attempts).all()
        assert (result.predicted <= result.attempts).all()
        assert (result.hits <= result.predicted).all()

    @given(data=st.lists(st.integers(0, 3), min_size=2, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_attempts_monotonically_decrease_with_horizon(self, data):
        result = evaluate_stream(
            data, lambda: PeriodicityPredictor(window_size=8), horizon=5
        )
        attempts = result.attempts.tolist()
        assert attempts == sorted(attempts, reverse=True)
        assert attempts[0] == len(data)
