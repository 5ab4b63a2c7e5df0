"""Tests for the online per-receiver message predictor (repro.predictive.online)."""

import pytest

from repro.predictive.online import OnlineMessagePredictor, PredictedMessage


def feed_pattern(predictor, receiver, pattern, repetitions):
    for _ in range(repetitions):
        for sender, nbytes in pattern:
            predictor.observe(receiver, sender, nbytes)


class TestOnlineMessagePredictor:
    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            OnlineMessagePredictor(nprocs=0)
        with pytest.raises(ValueError):
            OnlineMessagePredictor(nprocs=2, horizon=0)

    def test_no_predictions_before_learning(self):
        predictor = OnlineMessagePredictor(nprocs=4)
        assert all(not p.complete for p in predictor.predict(0))
        assert predictor.predicted_senders(0) == set()

    def test_learns_periodic_pattern(self):
        predictor = OnlineMessagePredictor(nprocs=4, horizon=4)
        pattern = [(1, 100), (2, 200), (3, 300), (1, 100)]
        feed_pattern(predictor, 0, pattern, 20)
        predictions = predictor.predict(0)
        assert [p.sender for p in predictions] == [1, 2, 3, 1]
        assert [p.nbytes for p in predictions] == [100, 200, 300, 100]
        assert all(p.complete for p in predictions)

    def test_receivers_are_independent(self):
        predictor = OnlineMessagePredictor(nprocs=4, horizon=2)
        feed_pattern(predictor, 0, [(1, 10)], 30)
        assert predictor.predicted_senders(0) == {1}
        assert predictor.predicted_senders(1) == set()

    def test_predicted_senders_set(self):
        predictor = OnlineMessagePredictor(nprocs=4, horizon=4)
        feed_pattern(predictor, 2, [(1, 10), (3, 20)], 20)
        assert predictor.predicted_senders(2) == {1, 3}

    def test_expects_message_with_and_without_size(self):
        predictor = OnlineMessagePredictor(nprocs=4, horizon=3)
        feed_pattern(predictor, 0, [(1, 100), (2, 200), (3, 300)], 20)
        assert predictor.expects_message(0, 1)
        assert predictor.expects_message(0, 1, 100)
        assert not predictor.expects_message(0, 1, 999)
        assert not predictor.expects_message(0, 3, horizon=2)

    def test_horizon_override(self):
        predictor = OnlineMessagePredictor(nprocs=4, horizon=2)
        feed_pattern(predictor, 0, [(1, 10), (2, 20), (3, 30)], 20)
        assert len(predictor.predict(0, horizon=6)) == 6

    def test_observation_counter(self):
        predictor = OnlineMessagePredictor(nprocs=2)
        feed_pattern(predictor, 0, [(1, 10)], 5)
        assert predictor.observations == 5

    def test_predicted_message_dataclass(self):
        complete = PredictedMessage(sender=1, nbytes=10)
        partial = PredictedMessage(sender=1, nbytes=None)
        assert complete.complete and not partial.complete

    def test_predicted_message_is_a_named_pair(self):
        message = PredictedMessage(sender=1, nbytes=10)
        assert (message.sender, message.nbytes) == (1, 10)
        sender, nbytes = message
        assert (sender, nbytes) == (1, 10)
        assert message == PredictedMessage(1, 10) == PredictedMessage(nbytes=10, sender=1)
        assert message != PredictedMessage(sender=1, nbytes=None)
        assert not PredictedMessage(sender=None, nbytes=10).complete
        assert len({message, PredictedMessage(1, 10), PredictedMessage(2, 10)}) == 2
        with pytest.raises(AttributeError):
            message.sender = 2

    def test_predictions_are_plain_ints(self):
        predictor = OnlineMessagePredictor(nprocs=1)
        feed_pattern(predictor, 0, [(1, 10), (2, 2**40)], 20)
        predictions = predictor.predict(0, horizon=5)
        assert predictions == [PredictedMessage(1, 10), PredictedMessage(2, 2**40)] * 2 + [
            PredictedMessage(1, 10)
        ]
        assert all(type(field) is int for message in predictions for field in message)

    def test_observe_batch_matches_sequential(self):
        pattern = [(1, 100), (2, 200), (3, 300)]
        sequential = OnlineMessagePredictor(nprocs=2)
        feed_pattern(sequential, 0, pattern, 20)
        batched = OnlineMessagePredictor(nprocs=2)
        pairs = pattern * 20
        batched.observe_batch(0, [s for s, _ in pairs], [b for _, b in pairs])
        assert batched.observations == sequential.observations
        assert batched.predict(0) == sequential.predict(0)

    def test_observe_batch_length_mismatch(self):
        predictor = OnlineMessagePredictor(nprocs=2)
        with pytest.raises(ValueError):
            predictor.observe_batch(0, [1, 2], [10])

    def test_observe_batch_empty(self):
        predictor = OnlineMessagePredictor(nprocs=2)
        predictor.observe_batch(0, [], [])
        assert predictor.observations == 0
