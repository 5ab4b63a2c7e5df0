"""Tests for the accuracy evaluation harness (repro.core.evaluation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import LastValuePredictor
from repro.core.evaluation import evaluate_stream, evaluate_unordered
from repro.core.predictor import BasePredictor, PeriodicityPredictor
from repro.predictive.registry import create_predictor, predictor_names


class PerfectOracle(BasePredictor):
    """Test helper: predicts a fixed constant, for controllable accuracy."""

    def __init__(self, value=1):
        self.value = value

    def observe(self, value):
        pass

    def predict(self, horizon=1):
        return [self.value] * horizon

    def reset(self):
        pass


class TestEvaluateStream:
    def test_perfect_predictions_on_constant_stream(self):
        result = evaluate_stream([1] * 50, lambda: PerfectOracle(1), horizon=3)
        assert result.accuracies() == [1.0, 1.0, 1.0]
        assert result.as_percentages() == [100.0, 100.0, 100.0]

    def test_all_wrong(self):
        result = evaluate_stream([2] * 50, lambda: PerfectOracle(1), horizon=2)
        assert result.accuracies() == [0.0, 0.0]

    def test_attempts_shrink_with_horizon(self):
        result = evaluate_stream([1] * 10, lambda: PerfectOracle(1), horizon=5)
        assert result.attempts.tolist() == [10, 9, 8, 7, 6]

    def test_none_predictions_count_as_misses_but_not_coverage(self):
        class Silent(BasePredictor):
            def observe(self, value):
                pass

            def predict(self, horizon=1):
                return [None] * horizon

            def reset(self):
                pass

        result = evaluate_stream([1, 2, 3, 4], Silent, horizon=1)
        assert result.accuracy(1) == 0.0
        assert result.coverage(1) == 0.0

    def test_coverage_reflects_predictions_made(self):
        result = evaluate_stream([1] * 10, lambda: PerfectOracle(1), horizon=1)
        assert result.coverage(1) == 1.0

    def test_warmup_excludes_initial_positions(self):
        # Last-value predictor on an alternating stream is always wrong ...
        stream = [1, 2] * 10
        full = evaluate_stream(stream, LastValuePredictor, horizon=1)
        # ... but a constant tail makes the post-warmup accuracy perfect.
        stream2 = [1, 2, 3, 4] + [7] * 20
        warm = evaluate_stream(stream2, LastValuePredictor, horizon=1, warmup=5)
        assert full.accuracy(1) == 0.0
        assert warm.accuracy(1) == 1.0

    def test_periodicity_predictor_high_accuracy_on_periodic_stream(self):
        stream = [1, 2, 3, 4, 5, 6] * 100
        result = evaluate_stream(
            stream, lambda: PeriodicityPredictor(window_size=12), horizon=5
        )
        for k in range(1, 6):
            assert result.accuracy(k) > 0.95

    def test_stream_length_recorded(self):
        result = evaluate_stream([1, 2, 3], lambda: PerfectOracle(), horizon=1)
        assert result.stream_length == 3

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            evaluate_stream([1], lambda: PerfectOracle(), horizon=0)

    def test_invalid_warmup(self):
        with pytest.raises(ValueError):
            evaluate_stream([1], lambda: PerfectOracle(), warmup=-1)

    def test_accuracy_horizon_bounds(self):
        result = evaluate_stream([1, 2], lambda: PerfectOracle(), horizon=2)
        with pytest.raises(ValueError):
            result.accuracy(0)
        with pytest.raises(ValueError):
            result.accuracy(3)

    def test_empty_stream(self):
        result = evaluate_stream([], lambda: PerfectOracle(), horizon=2)
        assert result.accuracy(1) == 0.0
        assert result.attempts.tolist() == [0, 0]

    def test_misbehaving_predictor_rejected(self):
        class Short(BasePredictor):
            def observe(self, value):
                pass

            def predict(self, horizon=1):
                return [1]  # always one prediction regardless of horizon

            def reset(self):
                pass

        with pytest.raises(ValueError):
            evaluate_stream([1, 2, 3], Short, horizon=3)

    @pytest.mark.parametrize("warmup", [0, 3, 17, 100])
    def test_vectorised_scoring_matches_reference_loop(self, warmup):
        """The pre-sized scoring arrays must reproduce the naive protocol."""
        import numpy as np

        rng = np.random.default_rng(9)
        stream = ([1, 2, 3, 4] * 12)[:40]
        stream[rng.integers(0, 40)] = 9  # one perturbed sample
        horizon = 4
        factory = lambda: PeriodicityPredictor(window_size=8, max_period=8)
        result = evaluate_stream(stream, factory, horizon=horizon, warmup=warmup)

        # Straight-line reference implementation of the scoring protocol.
        predictor = factory()
        hits = [0] * horizon
        attempts = [0] * horizon
        predicted = [0] * horizon
        n = len(stream)
        for t in range(n):
            if t >= warmup:
                predictions = predictor.predict(horizon)
                for k in range(1, horizon + 1):
                    target = t + k - 1
                    if target >= n:
                        break
                    attempts[k - 1] += 1
                    if predictions[k - 1] is None:
                        continue
                    predicted[k - 1] += 1
                    if int(predictions[k - 1]) == stream[target]:
                        hits[k - 1] += 1
            predictor.observe(stream[t])

        assert result.hits.tolist() == hits
        assert result.attempts.tolist() == attempts
        assert result.predicted.tolist() == predicted
        assert result.stream_length == n

    @given(
        name=st.sampled_from(predictor_names()),
        stream=st.lists(st.integers(0, 6) | st.integers(2**40, 2**40 + 2), max_size=120),
        horizon=st.integers(1, 6),
        warmup=st.integers(0, 30),
    )
    @settings(max_examples=120, deadline=None)
    def test_every_predictor_scores_as_the_matrix_loop_did(self, name, stream, horizon, warmup):
        """The scoring that ``evaluate_stream`` replaced, kept here as the
        reference: each step's predictions as a ``(values, mask)`` row of two
        matrices, then one comparison per horizon."""
        factory = lambda: create_predictor(name)
        result = evaluate_stream(stream, factory, horizon=horizon, warmup=warmup)

        values = np.asarray(stream, dtype=np.int64)
        n = len(values)
        predictor = factory()
        warm = min(warmup, n)
        if warm:
            predictor.observe_many(values[:warm])
        predicted_values = np.zeros((n - warm, horizon), dtype=np.int64)
        predicted_mask = np.zeros((n - warm, horizon), dtype=bool)
        for t in range(warm, n):
            step = predictor.predict(horizon)
            predicted_mask[t - warm] = [p is not None for p in step]
            predicted_values[t - warm] = [0 if p is None else p for p in step]
            predictor.observe(int(values[t]))
        hits, attempts, predicted = (np.zeros(horizon, dtype=np.int64) for _ in range(3))
        for k in range(1, horizon + 1):
            count = n - k + 1 - warm
            if count <= 0:
                continue
            attempts[k - 1] = count
            targets = values[warm + k - 1 : warm + k - 1 + count]
            column_mask = predicted_mask[:count, k - 1]
            predicted[k - 1] = np.count_nonzero(column_mask)
            hits[k - 1] = np.count_nonzero(
                column_mask & (predicted_values[:count, k - 1] == targets)
            )

        assert result.hits.tolist() == hits.tolist()
        assert result.attempts.tolist() == attempts.tolist()
        assert result.predicted.tolist() == predicted.tolist()
        assert result.hits.dtype == result.attempts.dtype == result.predicted.dtype == np.int64


class TestEvaluateUnordered:
    def test_perfect_overlap_on_constant_stream(self):
        result = evaluate_unordered([1] * 30, lambda: PerfectOracle(1), horizon=5)
        assert result.mean_overlap == pytest.approx(1.0)

    def test_zero_overlap(self):
        result = evaluate_unordered([2] * 30, lambda: PerfectOracle(1), horizon=5)
        assert result.mean_overlap == 0.0

    def test_reordering_hurts_unordered_score_less(self):
        # A periodic stream with random local reorderings (the physical-level
        # noise of the paper): exact-order accuracy collapses, but the
        # multiset of the next few values is preserved much more often — the
        # Section 5.3 argument for buffer pre-allocation.
        import numpy as np

        rng = np.random.default_rng(0)
        swapped = [1, 2, 3, 4] * 100
        for i in range(len(swapped) - 1):
            if rng.random() < 0.15:
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        factory = lambda: PeriodicityPredictor(window_size=8, max_period=16)
        ordered = evaluate_stream(swapped, factory, horizon=4)
        unordered = evaluate_unordered(swapped, factory, horizon=4)
        assert unordered.mean_overlap > ordered.accuracy(1) + 0.1

    def test_positions_counted(self):
        result = evaluate_unordered([1] * 10, lambda: PerfectOracle(1), horizon=5)
        assert result.positions == 6

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            evaluate_unordered([1], lambda: PerfectOracle(), horizon=0)
        with pytest.raises(ValueError):
            evaluate_unordered([1], lambda: PerfectOracle(), warmup=-2)
