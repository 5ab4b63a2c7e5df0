"""Predicted-sender eager buffer management (Section 2.1 of the paper).

The baseline MPI runtime pre-allocates one eager buffer per peer per process:
``(P - 1) * eager_buffer_bytes`` of memory each, which is the paper's head-
line scalability complaint (160 MB per process at 10 000 ranks).  This policy
instead keeps buffers only for the senders the receiver currently predicts
(plus the most recently seen senders, so the working set adapts), and lets a
message from an unpredicted sender fall back to the slow ask-permission path
(rendezvous), exactly as the paper proposes: "In case of a miss-prediction
... the slow mechanism of asking permission could be used."

The policy does its own memory accounting (buffers it decided to keep) so the
memory-reduction experiment can compare ``peak_buffer_bytes`` against the
baseline's ``(P - 1) * eager_buffer_bytes`` without touching the transport's
internal pools.
"""

from __future__ import annotations

from repro.predictive.online import OnlineMessagePredictor
from repro.runtime.protocol import FlowControlPolicy
from repro.sim.machine import MachineConfig

__all__ = ["PredictiveBufferPolicy"]


class PredictiveBufferPolicy(FlowControlPolicy):
    """Allow eager sends only towards receivers holding a buffer for the sender.

    Parameters
    ----------
    horizon:
        Prediction horizon used when refreshing each receiver's buffer set.
    extra_recent:
        Number of most-recently-seen senders kept buffered in addition to the
        predicted ones (a small victim cache that absorbs prediction misses
        for stable communicating pairs).
    predictor:
        Optional pre-built :class:`OnlineMessagePredictor` (mainly for tests).
    """

    name = "predictive-buffers"

    def __init__(
        self,
        horizon: int = 5,
        extra_recent: int = 2,
        predictor: OnlineMessagePredictor | None = None,
    ) -> None:
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if extra_recent < 0:
            raise ValueError(f"extra_recent must be non-negative, got {extra_recent}")
        self.horizon = horizon
        self.extra_recent = extra_recent
        self._predictor = predictor
        self._buffered: list[set[int]] = []
        self._recent: list[list[int]] = []
        self._peak_buffers: list[int] = []
        self.eager_hits = 0
        self.eager_misses = 0

    # ------------------------------------------------------------------
    def bind(self, machine: MachineConfig, nprocs: int) -> None:
        super().bind(machine, nprocs)
        if self._predictor is None:
            self._predictor = OnlineMessagePredictor(nprocs, horizon=self.horizon)
        self._buffered = [set() for _ in range(nprocs)]
        self._recent = [[] for _ in range(nprocs)]
        self._peak_buffers = [0] * nprocs

    @property
    def predictor(self) -> OnlineMessagePredictor:
        """The online predictor feeding the buffer decisions."""
        if self._predictor is None:
            raise RuntimeError("policy is not bound to a transport yet")
        return self._predictor

    def preallocate_peers(self, rank: int) -> list[int]:
        # Nothing is pre-allocated: buffers appear as senders are predicted.
        return []

    # ------------------------------------------------------------------
    def allows_eager(self, src: int, dst: int, nbytes: int, kind: str, now: float) -> bool:
        if nbytes > self.machine.eager_threshold:
            return False
        if src in self._buffered[dst]:
            self.eager_hits += 1
            return True
        self.eager_misses += 1
        return False

    def on_burst_delivered(
        self, dst: int, messages: list[tuple[int, int, int, str]], now: float
    ) -> None:
        """Learn a whole delivery burst, refreshing the buffer set once.

        The sender/size streams go through the predictor's amortised
        ``observe_batch`` path; the predicted-sender set is recomputed once
        from the post-burst predictor state (the intermediate sets a
        per-message replay would compute are unobservable inside a burst —
        no eager-send decision can interleave with it).
        """
        self.predictor.observe_batch(
            dst, [m[0] for m in messages], [m[1] for m in messages]
        )
        self._note_senders(dst, (m[0] for m in messages))
        self._refresh_buffers(dst)

    def _note_senders(self, dst: int, senders) -> None:
        """Move ``senders`` (in delivery order) to the front of the LRU list."""
        recent = self._recent[dst]
        for src in senders:
            if src in recent:
                recent.remove(src)
            recent.append(src)
        del recent[: max(0, len(recent) - self.extra_recent)]

    def _refresh_buffers(self, dst: int) -> None:
        """Recompute the buffered-sender set from the current predictions."""
        predicted = self.predictor.predicted_senders(dst, self.horizon)
        self._buffered[dst] = predicted | set(self._recent[dst])
        self._peak_buffers[dst] = max(self._peak_buffers[dst], len(self._buffered[dst]))

    # ------------------------------------------------------------------
    # Memory accounting for the Section 2.1 experiment
    # ------------------------------------------------------------------
    def buffers_held(self, rank: int) -> int:
        """Number of per-peer buffers currently held by ``rank``."""
        return len(self._buffered[rank])

    def peak_buffer_bytes(self, rank: int) -> int:
        """Peak eager-buffer memory committed by ``rank`` under this policy."""
        return self._peak_buffers[rank] * self.machine.eager_buffer_bytes

    def baseline_buffer_bytes(self) -> int:
        """Memory the standard all-peers pre-allocation would commit per rank."""
        return (self.nprocs - 1) * self.machine.eager_buffer_bytes

    def memory_summary(self) -> dict:
        """Aggregate memory comparison across all ranks."""
        peaks = [self.peak_buffer_bytes(r) for r in range(self.nprocs)]
        baseline = self.baseline_buffer_bytes()
        return {
            "policy": self.name,
            "nprocs": self.nprocs,
            "baseline_bytes_per_rank": baseline,
            "mean_peak_bytes_per_rank": sum(peaks) / len(peaks) if peaks else 0,
            "max_peak_bytes_per_rank": max(peaks, default=0),
            "reduction_factor": (baseline / max(max(peaks, default=0), 1)),
            "eager_hits": self.eager_hits,
            "eager_misses": self.eager_misses,
        }
