"""Tests for the baseline predictors (repro.core.baselines)."""

from array import array

import pytest

from repro.core.baselines import (
    CyclePredictor,
    LastValuePredictor,
    MarkovPredictor,
    MostFrequentPredictor,
    StridePredictor,
)
from repro.core.predictor import PredictorState


def state_fields(predictor):
    """``get_state`` with its ``array('q')`` vectors as lists, and the predictor rebuilt from it."""
    state = predictor.get_state()
    rebuilt = type(predictor).from_state(state)
    assert all(v.typecode == "q" for v in state.data if isinstance(v, array))
    fields = tuple(v.tolist() if isinstance(v, array) else v for v in state.data)
    return (state.kind, state.config, fields), rebuilt


class TestLastValue:
    def test_no_observation(self):
        assert LastValuePredictor().predict(3) == [None, None, None]

    def test_repeats_last(self):
        predictor = LastValuePredictor()
        predictor.observe(5)
        predictor.observe(7)
        assert predictor.predict(3) == [7, 7, 7]

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            LastValuePredictor().predict(0)

    def test_state_is_the_last_value(self):
        assert state_fields(LastValuePredictor())[0] == ("last-value", (), (None,))
        predictor = LastValuePredictor()
        predictor.observe_many([5, 7])
        fields, rebuilt = state_fields(predictor)
        assert fields == ("last-value", (), (7,))
        assert rebuilt.predict(3) == [7, 7, 7]


class TestMostFrequent:
    def test_majority_value(self):
        predictor = MostFrequentPredictor(window_size=10)
        predictor.observe_many([1, 1, 1, 2, 3])
        assert predictor.predict(2) == [1, 1]

    def test_sliding_window_evicts(self):
        predictor = MostFrequentPredictor(window_size=3)
        predictor.observe_many([1, 1, 1, 2, 2, 2])
        assert predictor.predict(1) == [2]

    def test_tie_broken_towards_recent(self):
        predictor = MostFrequentPredictor(window_size=10)
        predictor.observe_many([1, 2])
        assert predictor.predict(1) == [2]

    def test_empty(self):
        assert MostFrequentPredictor().predict(1) == [None]

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            MostFrequentPredictor(window_size=0)

    def test_state_is_the_window(self):
        predictor = MostFrequentPredictor(window_size=3)
        predictor.observe_many([1, 1, 1, 2, 2])
        fields, rebuilt = state_fields(predictor)
        assert fields == ("most-frequent", (3,), ([1, 2, 2],))
        assert rebuilt.predict(2) == predictor.predict(2) == [2, 2]
        with pytest.raises(ValueError, match="4 samples in a window of 3"):
            MostFrequentPredictor.from_state(
                PredictorState("most-frequent", (3,), (array("q", range(4)),))
            )


class TestCycle:
    def test_learns_successor(self):
        predictor = CyclePredictor()
        predictor.observe_many([1, 2, 3, 1])
        assert predictor.predict(1) == [2]

    def test_multi_step_walks_cycle(self):
        predictor = CyclePredictor()
        predictor.observe_many([1, 2, 3, 1, 2, 3, 1])
        assert predictor.predict(5) == [2, 3, 1, 2, 3]

    def test_unknown_value_gives_none(self):
        predictor = CyclePredictor()
        predictor.observe_many([1, 2])
        assert predictor.predict(3) == [None, None, None]

    def test_state_is_the_successor_pairs(self):
        predictor = CyclePredictor()
        predictor.observe_many([1, 2, 3, 1])
        fields, rebuilt = state_fields(predictor)
        assert fields == ("cycle", (), (1, [1, 2, 2, 3, 3, 1]))
        assert rebuilt.predict(4) == predictor.predict(4) == [2, 3, 1, 2]
        with pytest.raises(ValueError, match="odd length"):
            CyclePredictor.from_state(PredictorState("cycle", (), (1, array("q", [1, 1, 1]))))


class TestMarkov:
    def test_learns_order2_context(self):
        predictor = MarkovPredictor(order=2)
        predictor.observe_many([1, 2, 3] * 5)
        # context (2, 3) -> 1
        assert predictor.predict(1) == [1]

    def test_multi_step_rollout(self):
        predictor = MarkovPredictor(order=2)
        predictor.observe_many([1, 2, 3] * 5)
        assert predictor.predict(4) == [1, 2, 3, 1]

    def test_insufficient_context(self):
        predictor = MarkovPredictor(order=3)
        predictor.observe_many([1, 2])
        assert predictor.predict(2) == [None, None]

    def test_unseen_context(self):
        predictor = MarkovPredictor(order=1)
        predictor.observe_many([1, 2])
        # last value 2 has no recorded successor yet
        assert predictor.predict(1) == [None]

    def test_most_likely_continuation_wins(self):
        predictor = MarkovPredictor(order=1)
        predictor.observe_many([1, 2, 1, 2, 1, 3, 1])
        assert predictor.predict(1) == [2]

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            MarkovPredictor(order=0)

    def test_state_is_one_row_per_transition(self):
        predictor = MarkovPredictor(order=1)
        predictor.observe_many([1, 2, 1, 2, 1, 3])
        fields, rebuilt = state_fields(predictor)
        assert fields == ("markov", (1,), ([3], [1, 2, 2, 1, 3, 1, 2, 1, 2]))
        assert rebuilt.predict(3) == predictor.predict(3)
        with pytest.raises(ValueError, match="do not fit order 1"):
            MarkovPredictor.from_state(
                PredictorState("markov", (1,), (array("q", [0]), array("q", [0] * 4)))
            )


class TestStride:
    def test_arithmetic_progression(self):
        predictor = StridePredictor()
        predictor.observe_many([10, 20, 30])
        assert predictor.predict(3) == [40, 50, 60]

    def test_constant_stream(self):
        predictor = StridePredictor()
        predictor.observe_many([5, 5, 5])
        assert predictor.predict(2) == [5, 5]

    def test_single_observation_predicts_same(self):
        predictor = StridePredictor()
        predictor.observe(9)
        assert predictor.predict(2) == [9, 9]

    def test_empty(self):
        assert StridePredictor().predict(1) == [None]

    def test_state_is_the_last_value_and_stride(self):
        assert state_fields(StridePredictor())[0] == ("stride", (), (None, None))
        predictor = StridePredictor()
        predictor.observe_many([10, 20, 30])
        fields, rebuilt = state_fields(predictor)
        assert fields == ("stride", (), (30, 10))
        assert rebuilt.predict(2) == [40, 50]


class TestNames:
    def test_all_named_distinctly(self):
        names = {
            LastValuePredictor().name,
            MostFrequentPredictor().name,
            CyclePredictor().name,
            MarkovPredictor().name,
            StridePredictor().name,
        }
        assert len(names) == 5
