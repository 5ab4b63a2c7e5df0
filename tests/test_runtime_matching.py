"""Tests for the MPI matching queues (repro.runtime.matching)."""

from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.request import Request
from repro.runtime.matching import (
    PostedReceive,
    PostedReceiveQueue,
    UnexpectedEntry,
    UnexpectedQueue,
)
from repro.runtime.message import Message


def posted(source=ANY_SOURCE, tag=ANY_TAG, rank=0):
    return PostedReceive(
        request=Request("recv", rank), source=source, tag=tag, kind="p2p", post_time=0.0
    )


def message(src=1, dst=0, tag=0, nbytes=64):
    return Message(src=src, dst=dst, tag=tag, nbytes=nbytes)


class TestPostedReceiveMatching:
    def test_wildcards_accept_everything(self):
        assert posted().accepts(message(src=3, tag=9))

    def test_source_must_match(self):
        assert posted(source=2).accepts(message(src=2))
        assert not posted(source=2).accepts(message(src=3))

    def test_tag_must_match(self):
        assert posted(tag=5).accepts(message(tag=5))
        assert not posted(tag=5).accepts(message(tag=6))

    def test_both_constrained(self):
        entry = posted(source=2, tag=5)
        assert entry.accepts(message(src=2, tag=5))
        assert not entry.accepts(message(src=2, tag=6))
        assert not entry.accepts(message(src=1, tag=5))


class TestPostedReceiveQueue:
    def test_match_in_post_order(self):
        queue = PostedReceiveQueue()
        first = posted(source=ANY_SOURCE)
        second = posted(source=ANY_SOURCE)
        queue.post(first)
        queue.post(second)
        assert queue.match(message()) is first
        assert queue.match(message()) is second

    def test_match_skips_non_matching(self):
        queue = PostedReceiveQueue()
        specific = posted(source=5)
        wildcard = posted(source=ANY_SOURCE)
        queue.post(specific)
        queue.post(wildcard)
        assert queue.match(message(src=1)) is wildcard
        assert len(queue) == 1

    def test_no_match_returns_none(self):
        queue = PostedReceiveQueue()
        queue.post(posted(source=5))
        assert queue.match(message(src=1)) is None
        assert len(queue) == 1


class TestUnexpectedQueue:
    def test_match_in_arrival_order(self):
        queue = UnexpectedQueue()
        first = UnexpectedEntry(message=message(src=1), arrival_time=1.0)
        second = UnexpectedEntry(message=message(src=1), arrival_time=2.0)
        queue.add(first)
        queue.add(second)
        assert queue.match(posted(source=1)) is first
        assert queue.match(posted(source=1)) is second

    def test_match_respects_envelope(self):
        queue = UnexpectedQueue()
        queue.add(UnexpectedEntry(message=message(src=1, tag=1), arrival_time=1.0))
        queue.add(UnexpectedEntry(message=message(src=2, tag=2), arrival_time=2.0))
        matched = queue.match(posted(source=2))
        assert matched is not None and matched.message.src == 2
        assert len(queue) == 1

    def test_no_match(self):
        queue = UnexpectedQueue()
        queue.add(UnexpectedEntry(message=message(src=1), arrival_time=1.0))
        assert queue.match(posted(source=2)) is None

    def test_pending_bytes_excludes_rendezvous_announcements(self):
        queue = UnexpectedQueue()
        queue.add(UnexpectedEntry(message=message(nbytes=100), arrival_time=1.0))
        queue.add(
            UnexpectedEntry(
                message=message(nbytes=1000),
                arrival_time=2.0,
                is_rendezvous_announcement=True,
            )
        )
        assert queue.pending_bytes() == 100


class TestMessage:
    def test_envelope(self):
        assert message(src=1, dst=2, tag=3).envelope() == (1, 2, 3)
