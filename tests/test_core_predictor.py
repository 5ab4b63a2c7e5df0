"""Tests for the periodicity-based predictor (repro.core.predictor)."""

from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_state_is_configuration_counters_and_history(self):
        predictor = feed(PeriodicityPredictor(window_size=4, max_period=6), [1, 2] * 10)
        state = predictor.get_state()
        assert (state.kind, state.config) == ("periodicity", (4, 6, 1))
        seen, detections, changes, period, history = state.data
        assert (seen, detections, changes, period) == (20, predictor.detections, 1, 2)
        assert history.typecode == "q" and history == array("q", [1, 2] * 5)  # 10 of 20 samples
        rebuilt = PeriodicityPredictor.from_state(state)
        assert rebuilt.predict(5) == predictor.predict(5) and rebuilt.samples_seen == 20
        with pytest.raises(ValueError, match="period 7 cannot be replayed"):
            PeriodicityPredictor.from_state(state._replace(data=(20, 1, 1, 7, history)))

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


class TestAnswers:
    def test_a_period_longer_than_the_horizon_and_shorter(self):
        predictor = feed(PeriodicityPredictor(window_size=16, max_period=64), list(range(40)) * 4)
        assert predictor.current_period == 40
        assert predictor.predict(40) == list(range(40))
        assert predictor.predict(41) == list(range(40)) + [0]
        assert predictor.predict(95) == (list(range(40)) * 3)[:95]

    @given(
        st.lists(st.integers(0, 2**40), min_size=1, max_size=40),
        st.integers(1, 6),
        st.lists(st.integers(0, 3), max_size=12),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_answers_equal_the_whole_period_replay(self, pattern, repeats, tail, sticky):
        # The formula before the answer became one slice: copy the whole last
        # period, repeat it past a period, cut it to the horizon.
        def whole_period_replay(predictor, horizon):
            period = predictor.current_period
            if period is None:
                return [None] * horizon
            replay = predictor._dpd.recent(period).tolist()
            if horizon > period:
                replay *= -(-horizon // period)
            return replay[:horizon]

        predictor = PeriodicityPredictor(window_size=8, max_period=40, sticky=sticky)
        for value in pattern * repeats + tail:
            predictor.observe(value)
            period = predictor.current_period or 1
            for horizon in range(1, 2 * period + 1):
                assert predictor.predict(horizon) == whole_period_replay(predictor, horizon)

    @pytest.mark.parametrize("name", predictor_names())
    @pytest.mark.parametrize("stream", ["periodic", "perturbed", "aperiodic"])
    def test_every_registered_predictor_answers_plain_ints(self, name, stream):
        # Values past int32 on the way: histories are int64, answers plain ints.
        rng = np.random.default_rng(2024)
        periodic = np.tile(rng.integers(0, 2**40, 5), 30)
        values = {
            "periodic": periodic,
            "perturbed": np.where(rng.random(150) < 0.1, rng.integers(0, 9, 150), periodic),
            "aperiodic": rng.integers(0, 2**40, 150),
        }[stream]
        predictor = create_predictor(name)
        for value in values.tolist():
            predictor.observe(value)
            for horizon in (1, 7):
                predictions = predictor.predict(horizon)
                assert len(predictions) == horizon
                assert all(p is None or type(p) is int for p in predictions)
        for horizon in (0, -3):
            with pytest.raises(ValueError):
                predictor.predict(horizon)
