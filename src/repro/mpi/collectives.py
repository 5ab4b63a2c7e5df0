"""Collective algorithms decomposed into point-to-point messages.

Real MPI implementations (MPICH included, the paper's substrate) build their
collectives from point-to-point messages.  The algorithms here are the
classic ones:

* **broadcast** — binomial tree rooted at ``root``;
* **reduce** — reversed binomial tree (children send partial results up);
* **allreduce** — reduce to the root followed by a binomial broadcast (the
  simple MPICH algorithm for small payloads);
* **allgather** — ring: ``P-1`` steps, each rank forwards one block per step;
* **barrier** — dissemination algorithm (``ceil(log2 P)`` rounds);
* **gather / scatter** — flat fan-in / fan-out at the root;
* **alltoall / alltoallv** — pairwise exchange: at step ``s`` each rank sends
  to ``(rank + s) % P`` and receives from ``(rank - s) % P``.

Every function is a generator meant to be driven with ``yield from`` inside a
rank program — the only way a collective reaches the engine or the compiler,
which see nothing but the point-to-point operations it yields.  The two
nonblocking ones (:func:`ialltoall`, :func:`iallgather`) *return* a
:class:`CollectiveRequest` through the same ``yield from``.  All
point-to-point traffic generated here is tagged from the reserved collective
tag space and marked ``kind="collective"`` so the tracer can separate it from
application point-to-point messages (Table 1 of the paper reports the two
classes separately).

To stay deadlock-free regardless of message size (rendezvous sends block
until the peer posts its receive), pairwise exchanges always post the receive
first with ``irecv``, then send, then wait for both.

Each collective call may use a small range of consecutive tags (for round
separation); callers must space base tags by at least :data:`TAG_STRIDE`.
"""

from __future__ import annotations

from typing import Generator, Sequence

from repro.mpi.constants import KIND_COLLECTIVE
from repro.mpi.ops import IrecvOp, IsendOp, Operation, RecvOp, SendOp, WaitallOp
from repro.mpi.request import CollectiveRequest

__all__ = [
    "TAG_STRIDE",
    "sendrecv",
    "broadcast",
    "reduce",
    "allreduce",
    "allgather",
    "gather",
    "scatter",
    "alltoall",
    "alltoallv",
    "barrier",
    "ialltoall",
    "iallgather",
]

CollectiveGen = Generator[Operation, object, None]

#: Number of consecutive tags a single collective call may consume.
TAG_STRIDE = 64

#: Payload size used for barrier notification messages.
BARRIER_BYTES = 8


def sendrecv(
    dest: int,
    send_bytes: int,
    source: int,
    tag: int,
    recv_tag: int | None = None,
    kind: str = KIND_COLLECTIVE,
) -> CollectiveGen:
    """Send ``send_bytes`` to ``dest`` while receiving from ``source``.

    The receive is posted before the send so that two ranks exchanging
    rendezvous-sized messages never deadlock.
    """
    recv_req = yield IrecvOp(source=source, tag=tag if recv_tag is None else recv_tag, kind=kind)
    send_req = yield IsendOp(dest=dest, nbytes=send_bytes, tag=tag, kind=kind)
    yield WaitallOp(requests=[recv_req, send_req])


def broadcast(rank: int, size: int, nbytes: int, root: int, tag: int) -> CollectiveGen:
    """Binomial-tree broadcast of ``nbytes`` from ``root`` (MPICH algorithm)."""
    if size == 1:
        return
    relative = (rank - root) % size
    mask = 1
    while mask < size:
        if relative & mask:
            parent = (rank - mask) % size
            yield RecvOp(source=parent, tag=tag, kind=KIND_COLLECTIVE)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if relative + mask < size:
            child = (rank + mask) % size
            yield SendOp(dest=child, nbytes=nbytes, tag=tag, kind=KIND_COLLECTIVE)
        mask >>= 1


def reduce(rank: int, size: int, nbytes: int, root: int, tag: int) -> CollectiveGen:
    """Reversed binomial-tree reduction of ``nbytes`` partial results to ``root``."""
    if size == 1:
        return
    relative = (rank - root) % size
    mask = 1
    while mask < size:
        if (relative & mask) == 0:
            source_rel = relative | mask
            if source_rel < size:
                source = (source_rel + root) % size
                yield RecvOp(source=source, tag=tag, kind=KIND_COLLECTIVE)
        else:
            dest = ((relative & ~mask) + root) % size
            yield SendOp(dest=dest, nbytes=nbytes, tag=tag, kind=KIND_COLLECTIVE)
            break
        mask <<= 1


def allreduce(rank: int, size: int, nbytes: int, tag: int) -> CollectiveGen:
    """Allreduce = reduce to rank 0, then broadcast from rank 0."""
    yield from reduce(rank, size, nbytes, 0, tag)
    yield from broadcast(rank, size, nbytes, 0, tag + 1)


def allgather(rank: int, size: int, nbytes: int, tag: int) -> CollectiveGen:
    """Ring allgather: each rank contributes ``nbytes`` and receives ``P-1`` blocks."""
    if size == 1:
        return
    right = (rank + 1) % size
    left = (rank - 1) % size
    for _step in range(size - 1):
        yield from sendrecv(right, nbytes, left, tag)


def gather(rank: int, size: int, nbytes: int, root: int, tag: int) -> CollectiveGen:
    """Flat gather: every non-root rank sends ``nbytes`` to the root."""
    if size == 1:
        return
    if rank == root:
        requests = []
        for source in range(size):
            if source == root:
                continue
            req = yield IrecvOp(source=source, tag=tag, kind=KIND_COLLECTIVE)
            requests.append(req)
        yield WaitallOp(requests=requests)
    else:
        yield SendOp(dest=root, nbytes=nbytes, tag=tag, kind=KIND_COLLECTIVE)


def scatter(rank: int, size: int, nbytes: int, root: int, tag: int) -> CollectiveGen:
    """Flat scatter: the root sends ``nbytes`` to every other rank."""
    if size == 1:
        return
    if rank == root:
        requests = []
        for dest in range(size):
            if dest == root:
                continue
            req = yield IsendOp(dest=dest, nbytes=nbytes, tag=tag, kind=KIND_COLLECTIVE)
            requests.append(req)
        yield WaitallOp(requests=requests)
    else:
        yield RecvOp(source=root, tag=tag, kind=KIND_COLLECTIVE)


def alltoall(rank: int, size: int, nbytes: int, tag: int) -> CollectiveGen:
    """Pairwise-exchange alltoall with a uniform per-pair payload."""
    yield from alltoallv(rank, size, [nbytes] * size, tag)


def alltoallv(rank: int, size: int, send_bytes: Sequence[int], tag: int) -> CollectiveGen:
    """Pairwise-exchange alltoallv.

    ``send_bytes[d]`` is the payload this rank sends to destination ``d``;
    the entry for the rank itself is ignored.  At step ``s`` the rank sends to
    ``(rank + s) % size`` and receives from ``(rank - s) % size``, so a rank
    receives from every peer in a deterministic order — which is what makes
    the *logical* stream of the IS benchmark predictable even though the
    *physical* arrival order under fan-in is not.
    """
    if len(send_bytes) != size:
        raise ValueError(
            f"send_bytes must have one entry per rank ({size}), got {len(send_bytes)}"
        )
    if size == 1:
        return
    for step in range(1, size):
        dest = (rank + step) % size
        source = (rank - step) % size
        yield from sendrecv(dest, int(send_bytes[dest]), source, tag)


def ialltoall(rank: int, size: int, nbytes: int, tag: int) -> CollectiveGen:
    """Nonblocking pairwise alltoall; *returns* a :class:`CollectiveRequest`.

    Posts every receive first (deadlock freedom under rendezvous), then every
    send, and hands back a composite request covering all ``2*(P-1)``
    handles instead of waiting — the caller decides when to ``wait`` on it.
    The peer schedule matches :func:`alltoall`'s pairwise exchange: at step
    ``s`` the rank sends to ``(rank + s) % P`` and receives from
    ``(rank - s) % P``.
    """
    requests: list = []
    if size > 1:
        for step in range(1, size):
            source = (rank - step) % size
            req = yield IrecvOp(source=source, tag=tag, kind=KIND_COLLECTIVE)
            requests.append(req)
        for step in range(1, size):
            dest = (rank + step) % size
            req = yield IsendOp(dest=dest, nbytes=int(nbytes), tag=tag, kind=KIND_COLLECTIVE)
            requests.append(req)
    return CollectiveRequest(requests)


def iallgather(rank: int, size: int, nbytes: int, tag: int) -> CollectiveGen:
    """Nonblocking allgather; *returns* a :class:`CollectiveRequest`.

    Uses the flat pairwise pattern of :func:`ialltoall` — with a uniform
    block size every rank ships its own ``nbytes`` block to each peer, so the
    traffic is identical to an ``nbytes``-per-pair alltoall.  (A documented
    simplification: the blocking :func:`allgather` rings the blocks instead,
    which has the same total volume but different peer schedule.)
    """
    result = yield from ialltoall(rank, size, nbytes, tag)
    return result


def barrier(rank: int, size: int, tag: int) -> CollectiveGen:
    """Dissemination barrier: ``ceil(log2 P)`` rounds of notification exchange.

    Each round uses its own tag (``tag + round``) so that rounds can never be
    confused even when the same partner appears in two rounds.
    """
    if size == 1:
        return
    mask = 1
    round_index = 0
    while mask < size:
        dest = (rank + mask) % size
        source = (rank - mask) % size
        yield from sendrecv(dest, BARRIER_BYTES, source, tag + round_index)
        mask <<= 1
        round_index += 1
