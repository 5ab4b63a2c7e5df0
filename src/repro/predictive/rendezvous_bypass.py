"""Predictive rendezvous bypass for long messages (Section 2.3 of the paper).

Long messages normally pay a rendezvous handshake (RTS -> CTS -> data)
because the sender cannot assume the receiver has memory for them.  The paper
proposes that the receiver, having *predicted* an incoming long message from
a given sender, allocate the buffer ahead of time and tell the sender, so the
long message can be sent on the eager fast path "as if it were a short one".

This policy grants the fast path to a large message when the destination's
online predictor currently expects a message of that size from that sender;
everything else follows the standard size rule.  The latency benefit shows up
in the runtime statistics as large messages accounted under the eager latency
accumulator instead of the rendezvous one.
"""

from __future__ import annotations

from repro.predictive.online import OnlineMessagePredictor
from repro.runtime.protocol import FlowControlPolicy
from repro.sim.machine import MachineConfig

__all__ = ["PredictiveRendezvousPolicy"]


class PredictiveRendezvousPolicy(FlowControlPolicy):
    """Let predicted long messages skip the rendezvous handshake.

    Parameters
    ----------
    horizon:
        Prediction horizon consulted when a long message is about to be sent.
    match_size:
        If True (default), the bypass requires the predicted size to match the
        actual size (the receiver pre-allocated exactly that buffer); if
        False, predicting the sender alone is enough.
    """

    name = "predictive-rendezvous"

    def __init__(
        self,
        horizon: int = 5,
        match_size: bool = True,
        predictor: OnlineMessagePredictor | None = None,
    ) -> None:
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self.horizon = horizon
        self.match_size = bool(match_size)
        self._predictor = predictor
        self.bypasses = 0
        self.fallbacks = 0

    def bind(self, machine: MachineConfig, nprocs: int) -> None:
        super().bind(machine, nprocs)
        if self._predictor is None:
            self._predictor = OnlineMessagePredictor(nprocs, horizon=self.horizon)

    @property
    def predictor(self) -> OnlineMessagePredictor:
        """The online predictor consulted for bypass decisions."""
        if self._predictor is None:
            raise RuntimeError("policy is not bound to a transport yet")
        return self._predictor

    # ------------------------------------------------------------------
    def allows_eager(self, src: int, dst: int, nbytes: int, kind: str, now: float) -> bool:
        if nbytes <= self.machine.eager_threshold:
            return True
        expected = self.predictor.expects_message(
            dst, src, nbytes if self.match_size else None, self.horizon
        )
        if expected:
            self.bypasses += 1
            return True
        self.fallbacks += 1
        return False

    def on_burst_delivered(
        self, dst: int, messages: list[tuple[int, int, int, str]], now: float
    ) -> None:
        """Feed a whole delivery burst through the predictor's batch path."""
        self.predictor.observe_batch(
            dst, [m[0] for m in messages], [m[1] for m in messages]
        )

    # ------------------------------------------------------------------
    def bypass_summary(self) -> dict:
        """Counters for the Section 2.3 experiment."""
        total = self.bypasses + self.fallbacks
        return {
            "policy": self.name,
            "long_messages": total,
            "bypasses": self.bypasses,
            "fallbacks": self.fallbacks,
            "bypass_rate": self.bypasses / total if total else 0.0,
        }
