"""Online per-receiver prediction of the next incoming messages.

Each receiving rank owns two periodicity predictors — one over the sender
stream, one over the size stream — fed with every message delivered to it.
The runtime policies query the predictor for the next few expected
``(sender, size)`` pairs and make buffer / credit / protocol decisions from
them, exactly the usage the paper sketches in Section 2 ("knowing the next
senders and their message size may be useful", Section 5.3).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.core.baselines import STREAM_PREDICTORS
from repro.core.predictor import BasePredictor, PeriodicityPredictor, PredictorState

__all__ = ["PredictedMessage", "OnlineMessagePredictor"]


class PredictedMessage(NamedTuple):
    """One predicted future message at a receiver (unpacks as a pair)."""

    sender: int | None
    nbytes: int | None

    @property
    def complete(self) -> bool:
        """Whether both the sender and the size were predicted."""
        return self.sender is not None and self.nbytes is not None


class OnlineMessagePredictor:
    """Tracks and predicts the incoming message stream of every rank.

    Parameters
    ----------
    nprocs:
        Number of ranks.
    horizon:
        How many future messages are predicted per query (the paper uses 5).
    predictor_factory:
        Factory for the underlying stream predictor; defaults to the paper's
        :class:`PeriodicityPredictor` with a short comparison window and a
        generous maximum period.
    """

    name = "online"

    def __init__(
        self,
        nprocs: int,
        horizon: int = 5,
        predictor_factory: Callable[[], BasePredictor] | None = None,
    ) -> None:
        if nprocs <= 0:
            raise ValueError(f"nprocs must be positive, got {nprocs}")
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if predictor_factory is None:
            predictor_factory = lambda: PeriodicityPredictor(window_size=24, max_period=256)
        self.nprocs = nprocs
        self.horizon = horizon
        self._sender_predictors: list[BasePredictor] = [predictor_factory() for _ in range(nprocs)]
        self._size_predictors: list[BasePredictor] = [predictor_factory() for _ in range(nprocs)]
        self.observations = 0

    # ------------------------------------------------------------------
    def observe(self, receiver: int, sender: int, nbytes: int) -> None:
        """Record a message delivered to ``receiver``."""
        self._sender_predictors[receiver].observe(int(sender))
        self._size_predictors[receiver].observe(int(nbytes))
        self.observations += 1

    def observe_batch(self, receiver: int, senders, sizes) -> None:
        """Record a whole burst of messages delivered to ``receiver``.

        Both streams go through the predictors' ``observe_many`` (for the
        paper's periodicity predictor the ``observe`` loop, with a stream's
        first window appended in one call), which is how trace replay and
        burst delivery feed history without paying :meth:`observe`'s
        per-message overhead.
        """
        senders = list(senders) if not hasattr(senders, "__len__") else senders
        sizes = list(sizes) if not hasattr(sizes, "__len__") else sizes
        if len(senders) != len(sizes):
            raise ValueError(
                f"senders and sizes must have equal length, got {len(senders)} != {len(sizes)}"
            )
        if not len(senders):
            return
        self._sender_predictors[receiver].observe_many(senders)
        self._size_predictors[receiver].observe_many(sizes)
        self.observations += len(senders)

    def predict(self, receiver: int, horizon: int | None = None) -> list[PredictedMessage]:
        """Predict the next messages expected at ``receiver``.

        The per-message answer path (a policy hook after every delivery, a
        ``repro serve`` query): the two predictors' ``predict`` lists of
        plain ints, paired — nothing is converted or copied per element.
        """
        h = self.horizon if horizon is None else int(horizon)
        senders = self._sender_predictors[receiver].predict(h)
        sizes = self._size_predictors[receiver].predict(h)
        return list(map(PredictedMessage, senders, sizes))

    def predicted_senders(self, receiver: int, horizon: int | None = None) -> set[int]:
        """The set of senders expected among the next messages at ``receiver``."""
        return {
            sender for sender, _ in self.predict(receiver, horizon) if sender is not None
        }

    def expects_message(
        self, receiver: int, sender: int, nbytes: int | None = None, horizon: int | None = None
    ) -> bool:
        """Whether ``receiver`` predicts a message from ``sender`` (of ``nbytes``)."""
        for predicted_sender, size in self.predict(receiver, horizon):
            if predicted_sender != sender:
                continue
            if nbytes is None or size is None or size == nbytes:
                return True
        return False

    # ------------------------------------------------------------------
    def get_state(self) -> PredictorState:
        """``(nprocs, horizon)``, the observation count, then the states of the
        sender predictors and of the size predictors, receiver by receiver."""
        streams = (p.get_state() for p in self._sender_predictors + self._size_predictors)
        return PredictorState(self.name, (self.nprocs, self.horizon), (self.observations, *streams))

    @classmethod
    def from_state(cls, state: PredictorState) -> "OnlineMessagePredictor":
        nprocs, horizon = state.config
        observations, *streams = state.data
        if len(streams) != 2 * nprocs:
            raise ValueError(f"{len(streams)} stream predictor states for {nprocs} receivers")
        # The constructor asks its factory for the sender predictors, then the
        # size predictors: hand it the rebuilt ones in that order.
        rebuilt = iter([STREAM_PREDICTORS[s.kind].from_state(s) for s in streams])
        predictor = cls(nprocs, horizon, lambda: next(rebuilt))
        predictor.observations = observations
        return predictor

    @property
    def nbytes(self) -> int:
        total = 288  # the object and its two lists (two loops: this runs on every observe)
        for predictor in self._sender_predictors:
            total += predictor.nbytes
        for predictor in self._size_predictors:
            total += predictor.nbytes
        return total
