"""MPI receive matching queues.

Matching follows the MPI rules the paper's substrate (MPICH) implements:

* a posted receive specifies a source and a tag, either of which may be the
  wildcard (``ANY_SOURCE`` / ``ANY_TAG``);
* an incoming message matches the *earliest posted* receive whose source and
  tag accept it;
* a newly posted receive matches the *earliest arrived* unexpected message it
  accepts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.request import Request
from repro.runtime.message import Message

__all__ = ["PostedReceive", "PostedReceiveQueue", "UnexpectedQueue"]


class PostedReceive(NamedTuple):
    """A receive that has been posted but not yet matched.

    A named tuple rather than a dataclass: one is built per posted receive,
    and a flat tuple is the cheapest allocation the queue entries can be (the
    transport builds them through ``tuple.__new__`` on the hot path, skipping
    even the generated ``__new__`` wrapper).
    """

    request: Request
    source: int
    tag: int
    kind: str
    post_time: float

    def accepts(self, msg: Message) -> bool:
        """Whether this posted receive matches the message's envelope."""
        if self.source != ANY_SOURCE and self.source != msg.src:
            return False
        if self.tag != ANY_TAG and self.tag != msg.tag:
            return False
        return True


class UnexpectedEntry(NamedTuple):
    """A message (or rendezvous announcement) that arrived before its receive.

    Flat tuple for the same reason as :class:`PostedReceive` — one entry per
    unexpected arrival, on the delivery hot path.
    """

    message: Message
    arrival_time: float
    #: True when the entry is a rendezvous RTS waiting for a matching receive
    #: (payload not yet transferred); False for buffered eager payloads.
    is_rendezvous_announcement: bool = False
    #: Opaque handle the transport uses to resume the rendezvous handshake.
    rendezvous_token: object | None = None
    #: For buffered eager payloads: which storage class the buffer pool used
    #: ("buffer" or "heap"), needed to release the memory on match.
    storage: str | None = None


@dataclass(slots=True)
class PostedReceiveQueue:
    """Posted receives of one rank, in posting order."""

    entries: list[PostedReceive] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def post(self, entry: PostedReceive) -> None:
        """Append a newly posted receive."""
        self.entries.append(entry)

    def match(self, msg: Message) -> Optional[PostedReceive]:
        """Pop and return the earliest posted receive matching ``msg``."""
        src = msg.src
        tag = msg.tag
        entries = self.entries
        # accepts() inlined: this loop runs once per delivered message.
        for index, entry in enumerate(entries):
            esrc = entry.source
            if esrc != ANY_SOURCE and esrc != src:
                continue
            etag = entry.tag
            if etag != ANY_TAG and etag != tag:
                continue
            return entries.pop(index)
        return None


@dataclass(slots=True)
class UnexpectedQueue:
    """Unexpected (early) messages of one rank, in arrival order."""

    entries: list[UnexpectedEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, entry: UnexpectedEntry) -> None:
        """Append a newly arrived unexpected message."""
        self.entries.append(entry)

    def match(self, posted: PostedReceive) -> Optional[UnexpectedEntry]:
        """Pop and return the earliest unexpected entry the receive accepts."""
        src = posted.source
        tag = posted.tag
        entries = self.entries
        # accepts() inlined: this loop runs once per posted receive.
        for index, entry in enumerate(entries):
            message = entry.message
            if src != ANY_SOURCE and src != message.src:
                continue
            if tag != ANY_TAG and tag != message.tag:
                continue
            return entries.pop(index)
        return None
