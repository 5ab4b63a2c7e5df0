"""Request handles and receive statuses.

A :class:`Request` is created by the runtime transport for every send and
receive operation.  The simulation engine registers completion callbacks on
requests to wake blocked ranks; the transport fires them when the underlying
protocol finishes (eager data buffered/delivered, rendezvous handshake plus
data transfer done, ...).
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple

__all__ = ["Status", "Request", "CollectiveRequest"]

_request_ids = itertools.count()
#: The completion time of a request still in flight (parsed once, not per request).
_NAN = float("nan")


class Status(NamedTuple):
    """Result of a completed receive (a subset of ``MPI_Status``).

    A named tuple rather than a dataclass: one is built per completed
    receive, and tuple construction is allocation-cheap on that hot path.

    Attributes
    ----------
    source:
        Rank that sent the matched message.
    tag:
        Tag of the matched message.
    nbytes:
        Size of the matched message in bytes.
    kind:
        ``"p2p"`` or ``"collective"`` — which API family generated the
        message (used by the tracer to populate Table 1's two columns).
    arrival_time:
        Simulated time at which the message physically arrived at the
        receiving rank (before any matching/copy delays).
    """

    source: int
    tag: int
    nbytes: int
    kind: str
    arrival_time: float


class Request:
    """Handle for an in-flight send or receive.

    Attributes
    ----------
    op_kind:
        ``"send"`` or ``"recv"``.
    rank:
        Owning rank (the rank whose program posted the operation).
    completed:
        Whether the operation has finished.
    completion_time:
        Simulated time at which the owning rank may consider the operation
        complete (includes CPU overheads and copy costs).
    status:
        For receives, the :class:`Status` of the matched message.
    """

    __slots__ = (
        "req_id",
        "op_kind",
        "rank",
        "completed",
        "completion_time",
        "status",
        "_callbacks",
    )

    def __init__(self, op_kind: str, rank: int) -> None:
        if op_kind not in ("send", "recv"):
            raise ValueError(f"op_kind must be 'send' or 'recv', got {op_kind!r}")
        self.req_id = next(_request_ids)
        self.op_kind = op_kind
        self.rank = rank
        self.completed = False
        self.completion_time = _NAN
        self.status: Status | None = None
        # Lazily allocated: most requests complete before anyone waits on them.
        self._callbacks: list[Callable[["Request"], None]] | None = None

    def _reuse(self, op_kind: str, rank: int) -> "Request":
        """Reinitialise a pooled request for a new operation.

        The transport recycles requests of *blocking* operations (their
        handles provably never escape to rank programs) through a freelist;
        a recycled request is indistinguishable from a fresh one — including
        a brand-new ``req_id``, which per-request keys (e.g. the tracer's
        pending-receive map) rely on.
        """
        self.req_id = next(_request_ids)
        self.op_kind = op_kind
        self.rank = rank
        self.completed = False
        self.completion_time = _NAN
        self.status = None
        self._callbacks = None
        return self

    def add_callback(self, callback: Callable[["Request"], None]) -> None:
        """Register ``callback(request)`` to run at completion.

        If the request has already completed, the callback runs immediately.
        """
        if self.completed:
            callback(self)
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)

    def _complete(self, time: float, status: Status | None = None) -> None:
        """Mark the request complete and fire callbacks (transport-internal)."""
        if self.completed:
            raise RuntimeError(f"request {self.req_id} completed twice")
        self.completed = True
        self.completion_time = float(time)
        self.status = status
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.completed else "pending"
        return f"Request(id={self.req_id}, {self.op_kind}, rank={self.rank}, {state})"


class CollectiveRequest:
    """Composite handle for a nonblocking collective (``MPI_Ialltoall``...).

    Wraps the point-to-point :class:`Request` handles of the collective's
    decomposition; it is complete when all of them are.  Exposes the same
    waiting surface the engine uses on plain requests (``completed``,
    ``completion_time``, ``add_callback``), so ``wait``/``waitall`` accept
    composite and plain handles interchangeably.  ``status`` is always
    ``None`` — a collective has no single matched message — which is also
    what ``op_kind = "coll"`` signals to the engine's result shaping.
    """

    __slots__ = ("requests",)

    op_kind = "coll"
    status = None

    def __init__(self, requests: list[Request]) -> None:
        self.requests = list(requests)

    @property
    def completed(self) -> bool:
        return all(request.completed for request in self.requests)

    @property
    def completion_time(self) -> float:
        """Latest completion time among the constituent requests.

        Only meaningful once :attr:`completed` is true; an empty composite
        (single-rank collective) completes immediately at time 0.0, which the
        engine's resume logic clamps up to the current clock.
        """
        return max(
            (request.completion_time for request in self.requests), default=0.0
        )

    def add_callback(self, callback: Callable[["CollectiveRequest"], None]) -> None:
        """Run ``callback(self)`` once every constituent request completes."""
        remaining = [req for req in self.requests if not req.completed]
        if not remaining:
            callback(self)
            return
        outstanding = len(remaining)

        def _on_sub_complete(_request: Request) -> None:
            nonlocal outstanding
            outstanding -= 1
            if outstanding == 0:
                callback(self)

        for request in remaining:
            request.add_callback(_on_sub_complete)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.completed else "pending"
        return f"CollectiveRequest({len(self.requests)} requests, {state})"
