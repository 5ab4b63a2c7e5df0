"""Prediction-driven credit flow control (Section 2.2 of the paper).

The scalability risk of the standard eager protocol is that any number of
senders may push short messages at one receiver without asking, so the
receiver's unexpected-message memory is unbounded.  The paper proposes that
the receiver *grant credits* to the senders it predicts, sized by the
predicted messages; a sender without credit must fall back to the slow
ask-permission (rendezvous) path, which bounds the receiver's memory at the
price of extra latency on mispredicted messages.

This policy implements that scheme on top of
:class:`repro.runtime.credits.CreditManager`: every delivered message refreshes
the receiver's predictions and grants credits for the predicted next messages;
``allows_eager`` consumes credit when available.
"""

from __future__ import annotations

from repro.predictive.online import OnlineMessagePredictor
from repro.runtime.credits import CreditManager
from repro.runtime.protocol import FlowControlPolicy
from repro.sim.machine import MachineConfig

__all__ = ["PredictiveCreditPolicy"]


class PredictiveCreditPolicy(FlowControlPolicy):
    """Eager sends require credits granted from the receiver's predictions.

    Parameters
    ----------
    horizon:
        Prediction horizon used when granting credits.
    credit_cap_bytes:
        Upper bound on the outstanding credit per (receiver, sender) pair;
        this is the receiver's per-sender memory exposure.
    bootstrap_credit_bytes:
        Credit implicitly available to every pair before any prediction has
        been made (so applications can start up); set to 0 for a strict
        predictions-only regime.
    """

    name = "predictive-credits"

    def __init__(
        self,
        horizon: int = 5,
        credit_cap_bytes: int = 64 * 1024,
        bootstrap_credit_bytes: int = 4 * 1024,
        predictor: OnlineMessagePredictor | None = None,
    ) -> None:
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if credit_cap_bytes <= 0:
            raise ValueError(f"credit_cap_bytes must be positive, got {credit_cap_bytes}")
        if bootstrap_credit_bytes < 0:
            raise ValueError(
                f"bootstrap_credit_bytes must be non-negative, got {bootstrap_credit_bytes}"
            )
        self.horizon = horizon
        self.credit_cap_bytes = int(credit_cap_bytes)
        self.bootstrap_credit_bytes = int(bootstrap_credit_bytes)
        self._predictor = predictor
        self.credits = CreditManager()
        self.eager_granted = 0
        self.eager_denied = 0

    # ------------------------------------------------------------------
    def bind(self, machine: MachineConfig, nprocs: int) -> None:
        super().bind(machine, nprocs)
        if self._predictor is None:
            self._predictor = OnlineMessagePredictor(nprocs, horizon=self.horizon)

    @property
    def predictor(self) -> OnlineMessagePredictor:
        """The online predictor driving credit grants."""
        if self._predictor is None:
            raise RuntimeError("policy is not bound to a transport yet")
        return self._predictor

    def preallocate_peers(self, rank: int) -> list[int]:
        return []

    # ------------------------------------------------------------------
    def allows_eager(self, src: int, dst: int, nbytes: int, kind: str, now: float) -> bool:
        if nbytes > self.machine.eager_threshold:
            return False
        if nbytes <= self.bootstrap_credit_bytes and self.credits.available(dst, src) == 0:
            # Start-up allowance: tiny messages may flow before the receiver
            # has learned anything (mirrors real implementations that always
            # reserve a minimal per-peer credit).
            self.eager_granted += 1
            return True
        if self.credits.try_consume(dst, src, nbytes):
            self.eager_granted += 1
            return True
        self.eager_denied += 1
        return False

    def on_burst_delivered(
        self, dst: int, messages: list[tuple[int, int, int, str]], now: float
    ) -> None:
        """Observe and grant message by message.

        Credit grants are *cumulative* (each one adds to the account, capped
        at ``credit_cap_bytes``) and each grant is sized by the predictions
        at that point in the stream, so collapsing a burst into one
        post-burst grant would leave a different balance than per-message
        delivery — and whether same-timestamp deliveries coalesce would then
        change later eager decisions.  The predictor's batch-observe path
        therefore cannot be used for this policy.
        """
        observe = self.predictor.observe
        grant = self._grant_from_predictions
        for src, nbytes, _tag, _kind in messages:
            observe(dst, src, nbytes)
            grant(dst)

    def _grant_from_predictions(self, dst: int) -> None:
        """Grant credits to the senders currently predicted at ``dst``."""
        for sender, nbytes in zip(*self.predictor.forecast(dst, self.horizon)):
            if sender is None:
                continue
            grant = nbytes if nbytes is not None else self.machine.eager_threshold
            account = self.credits.account(dst, sender)
            headroom = self.credit_cap_bytes - account.available_bytes
            if headroom > 0:
                self.credits.grant(dst, sender, min(int(grant), headroom))

    # ------------------------------------------------------------------
    def exposure_summary(self) -> dict:
        """Memory-exposure comparison for the Section 2.2 experiment."""
        outstanding = [a.available_bytes for a in self.credits.accounts()]
        return {
            "policy": self.name,
            "nprocs": self.nprocs,
            "eager_granted": self.eager_granted,
            "eager_denied": self.eager_denied,
            "total_granted_bytes": self.credits.total_granted_bytes(),
            "max_outstanding_credit_bytes": max(outstanding, default=0),
            "credit_cap_bytes": self.credit_cap_bytes,
        }
