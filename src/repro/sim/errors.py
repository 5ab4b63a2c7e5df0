"""Exception types raised by the simulation substrate."""

from __future__ import annotations

__all__ = [
    "SimulationError",
    "DeadlockError",
    "ConfigurationError",
    "ProgramError",
    "TimeLimitExceeded",
    "deadlock_detail",
]


class SimulationError(RuntimeError):
    """Base class for all simulator errors."""


class TimeLimitExceeded(SimulationError):
    """Raised when a run exceeds its ``max_wall_seconds`` safety budget.

    Unlike the (deterministic) ``max_events`` guard this depends on host
    speed; the sweep engine records it once, like any other failure.
    """


class DeadlockError(SimulationError):
    """Raised when the event queue drains while some ranks are still blocked.

    This corresponds to a real MPI deadlock: every remaining rank is waiting
    on a message or handshake that can never arrive (for example, two ranks
    both blocked in a rendezvous send to each other with no matching receive
    posted).
    """

    def __init__(self, blocked_ranks: list[int], detail: str = "") -> None:
        self.blocked_ranks = list(blocked_ranks)
        message = f"simulation deadlocked; blocked ranks: {self.blocked_ranks}"
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)


def deadlock_detail(blocked_on: dict[int, str], pending_counts: dict) -> str:
    """Detail of a :class:`DeadlockError`: each stuck rank's call, then the queues."""
    stuck = ", ".join(f"rank {rank}: {why}" for rank, why in sorted(blocked_on.items()))
    return f"{stuck}; pending queues: {pending_counts}"


class ConfigurationError(SimulationError, ValueError):
    """Raised for invalid simulator/workload configuration."""


class ProgramError(SimulationError):
    """Raised when a rank program yields something the engine cannot execute."""
