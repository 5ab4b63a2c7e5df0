"""Tests for the periodicity-based predictor (repro.core.predictor)."""

import numpy as np
import pytest

from repro.core.predictor import PeriodicityPredictor
from repro.predictive.registry import create_predictor, predictor_names


def feed(predictor, values):
    for value in values:
        predictor.observe(int(value))
    return predictor


class TestPrediction:
    def test_no_prediction_before_learning(self):
        predictor = PeriodicityPredictor(window_size=8)
        assert predictor.predict(5) == [None] * 5

    def test_exact_replay_of_periodic_stream(self):
        pattern = [3, 1, 4, 1, 5]
        predictor = feed(PeriodicityPredictor(window_size=10), pattern * 6)
        predictions = predictor.predict(10)
        assert predictions == pattern * 2

    def test_prediction_horizon_wraps_around_period(self):
        pattern = [7, 8]
        predictor = feed(PeriodicityPredictor(window_size=6), pattern * 10)
        assert predictor.predict(5) == [7, 8, 7, 8, 7]

    def test_prediction_continues_mid_period(self):
        pattern = [1, 2, 3, 4]
        stream = pattern * 6 + [1, 2]  # stops mid-period
        predictor = feed(PeriodicityPredictor(window_size=8), stream)
        assert predictor.predict(4) == [3, 4, 1, 2]

    def test_constant_stream(self):
        predictor = feed(PeriodicityPredictor(window_size=4), [9] * 20)
        assert predictor.predict(3) == [9, 9, 9]

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            PeriodicityPredictor().predict(0)

    def test_long_period_with_short_window(self):
        pattern = list(range(40))
        predictor = feed(
            PeriodicityPredictor(window_size=16, max_period=64), pattern * 4
        )
        assert predictor.current_period == 40
        assert predictor.predict(3) == [0, 1, 2]


class TestStickiness:
    def test_sticky_keeps_period_through_noise(self):
        pattern = [1, 2, 3, 4]
        predictor = feed(PeriodicityPredictor(window_size=8, sticky=True), pattern * 8)
        assert predictor.current_period == 4
        predictor.observe(99)  # one perturbed sample
        assert predictor.current_period == 4
        assert all(p is not None for p in predictor.predict(4))

    def test_non_sticky_drops_prediction_on_noise(self):
        pattern = [1, 2, 3, 4]
        predictor = feed(PeriodicityPredictor(window_size=8, sticky=False), pattern * 8)
        predictor.observe(99)
        assert predictor.current_period is None
        assert predictor.predict(2) == [None, None]

    def test_period_change_is_tracked(self):
        predictor = PeriodicityPredictor(window_size=8, max_period=16)
        feed(predictor, [1, 2] * 10)
        first_period = predictor.current_period
        feed(predictor, [5, 6, 7, 8] * 10)
        assert first_period == 2
        assert predictor.current_period == 4
        assert predictor.period_changes >= 2


class TestBookkeeping:
    def test_counters(self):
        predictor = feed(PeriodicityPredictor(window_size=4), [1, 2] * 10)
        assert predictor.samples_seen == 20
        assert predictor.detections > 0

    def test_reset(self):
        predictor = feed(PeriodicityPredictor(window_size=4), [1, 2] * 10)
        predictor.reset()
        assert predictor.samples_seen == 0
        assert predictor.current_period is None
        assert predictor.predict(2) == [None, None]

    def test_periodicity_exposes_dpd_result(self):
        predictor = feed(PeriodicityPredictor(window_size=6), [1, 2, 3] * 10)
        result = predictor.periodicity()
        assert result.period == 3

    def test_observe_many(self):
        predictor = PeriodicityPredictor(window_size=4)
        predictor.observe_many([1, 2] * 8)
        assert predictor.current_period == 2

    def test_window_size_property(self):
        assert PeriodicityPredictor(window_size=12).window_size == 12

    def test_name(self):
        assert PeriodicityPredictor().name == "periodicity"


PERIOD = 5


def seeded_streams(length):
    """Periodic, perturbed (a tenth of the samples replaced) and aperiodic."""
    rng = np.random.default_rng(2024)
    pattern = rng.integers(0, 9, PERIOD)
    periodic = np.tile(pattern, length // PERIOD + 1)[:length]
    perturbed = np.where(rng.random(length) < 0.1, rng.integers(100, 200, length), periodic)
    # One value past int32 on the way: the ring is int64, the answers plain ints.
    aperiodic = rng.integers(0, 2**40, length)
    return {"periodic": periodic, "perturbed": perturbed, "aperiodic": aperiodic}


def assert_predict_equals_predict_array(predictor):
    for horizon in range(1, 3 * PERIOD + 2):
        predictions = predictor.predict(horizon)
        values, mask = predictor.predict_array(horizon)
        assert predictions == [
            value if kept else None for value, kept in zip(values.tolist(), mask.tolist())
        ]
        assert all(p is None or type(p) is int for p in predictions)
    for horizon in (0, -3):
        with pytest.raises(ValueError):
            predictor.predict(horizon)
        with pytest.raises(ValueError):
            predictor.predict_array(horizon)


def walk_prefixes(predictor, stream):
    """Empty, filling and full ring, then a reset and a second filling."""
    assert_predict_equals_predict_array(predictor)
    for value in stream.tolist():
        predictor.observe(value)
        assert_predict_equals_predict_array(predictor)
    predictor.reset()
    assert_predict_equals_predict_array(predictor)
    for value in stream[: 4 * PERIOD].tolist():
        predictor.observe(value)
    assert_predict_equals_predict_array(predictor)


class TestPredictEqualsPredictArray:
    """``predict`` is the scalar per-message path, ``predict_array`` the
    vectorised one; they are written separately and must answer alike."""

    @pytest.mark.parametrize("stream", ["periodic", "perturbed", "aperiodic"])
    @pytest.mark.parametrize("sticky", [True, False])
    @pytest.mark.parametrize("tolerance", [0, 2])
    @pytest.mark.parametrize("window, max_period", [(24, 256), (6, 12), (64, 64)])
    def test_periodicity_predictor(self, window, max_period, tolerance, sticky, stream):
        predictor = PeriodicityPredictor(
            window_size=window, max_period=max_period, mismatch_tolerance=tolerance, sticky=sticky
        )
        # The ring holds window + max_period samples: run past it.
        walk_prefixes(predictor, seeded_streams(window + max_period + 4 * PERIOD)[stream])

    def test_a_period_longer_than_the_horizon_and_shorter(self):
        predictor = feed(PeriodicityPredictor(window_size=16, max_period=64), list(range(40)) * 4)
        assert predictor.current_period == 40
        assert predictor.predict(40) == list(range(40))
        assert predictor.predict(41) == list(range(40)) + [0]
        assert predictor.predict(95) == (list(range(40)) * 3)[:95]

    @pytest.mark.parametrize("name", predictor_names())
    @pytest.mark.parametrize("stream", ["periodic", "perturbed", "aperiodic"])
    def test_every_registered_predictor(self, name, stream):
        walk_prefixes(create_predictor(name), seeded_streams(120)[stream])
