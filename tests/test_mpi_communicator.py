"""Tests for the communicator API (repro.mpi.communicator)."""

import pytest

from repro.mpi.communicator import Communicator, RankContext
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, COLLECTIVE_TAG_BASE, MAX_USER_TAG
from repro.mpi.ops import ComputeOp, IrecvOp, IsendOp, RecvOp, SendOp, WaitallOp, WaitOp
from repro.mpi.request import Request
from repro.util.rng import SeededRNG


@pytest.fixture
def comm():
    return Communicator(rank=1, size=4)


class TestConstruction:
    def test_valid(self):
        c = Communicator(rank=0, size=1)
        assert c.rank == 0 and c.size == 1

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Communicator(rank=0, size=0)

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            Communicator(rank=4, size=4)


class TestPointToPoint:
    def test_send_builds_op(self, comm):
        op = comm.send(2, 100, tag=7)
        assert isinstance(op, SendOp)
        assert (op.dest, op.nbytes, op.tag, op.kind) == (2, 100, 7, "p2p")

    def test_isend_builds_op(self, comm):
        assert isinstance(comm.isend(0, 10), IsendOp)

    def test_recv_defaults_to_wildcards(self, comm):
        op = comm.recv()
        assert isinstance(op, RecvOp)
        assert op.source == ANY_SOURCE and op.tag == ANY_TAG

    def test_irecv_builds_op(self, comm):
        op = comm.irecv(source=3, tag=2)
        assert isinstance(op, IrecvOp)
        assert op.source == 3

    def test_send_invalid_dest(self, comm):
        with pytest.raises(ValueError):
            comm.send(4, 10)

    def test_send_negative_bytes(self, comm):
        with pytest.raises(ValueError):
            comm.send(0, -1)

    def test_recv_invalid_source(self, comm):
        with pytest.raises(ValueError):
            comm.recv(source=9)

    def test_tag_out_of_range(self, comm):
        with pytest.raises(ValueError):
            comm.send(0, 8, tag=MAX_USER_TAG + 1)
        with pytest.raises(ValueError):
            comm.recv(tag=-5)

    def test_wait_and_waitall_wrap_requests(self, comm):
        req = Request("send", 1)
        assert isinstance(comm.wait(req), WaitOp)
        op = comm.waitall([req])
        assert isinstance(op, WaitallOp)
        assert list(op.requests) == [req]

    def test_compute(self, comm):
        op = comm.compute(1e-3)
        assert isinstance(op, ComputeOp)
        assert op.seconds == pytest.approx(1e-3)

    def test_compute_negative(self, comm):
        with pytest.raises(ValueError):
            comm.compute(-1.0)


class TestCollectiveGenerators:
    def test_collective_tags_are_reserved_and_strided(self, comm):
        ops_a = list(comm.bcast(64, root=0))
        ops_b = list(comm.bcast(64, root=0))
        tags = [op.tag for op in ops_a + ops_b if hasattr(op, "tag")]
        assert all(tag >= COLLECTIVE_TAG_BASE for tag in tags)
        tags_a = {op.tag for op in ops_a if hasattr(op, "tag")}
        tags_b = {op.tag for op in ops_b if hasattr(op, "tag")}
        assert tags_a.isdisjoint(tags_b)

    def test_collective_ops_marked_collective(self, comm):
        for op in comm.alltoall(16):
            if isinstance(op, (SendOp, IsendOp, RecvOp, IrecvOp)):
                assert op.kind == "collective"

    def test_bcast_invalid_root(self, comm):
        with pytest.raises(ValueError):
            list(comm.bcast(10, root=7))

    def test_alltoallv_requires_size_entries(self, comm):
        with pytest.raises(ValueError):
            list(comm.alltoallv([1, 2]))

    def test_alltoallv_negative_entry(self, comm):
        with pytest.raises(ValueError):
            list(comm.alltoallv([1, -1, 1, 1]))

    def test_single_rank_collectives_are_empty(self):
        solo = Communicator(rank=0, size=1)
        assert list(solo.bcast(10)) == []
        assert list(solo.barrier()) == []
        assert list(solo.allreduce(10)) == []
        assert list(solo.allgather(10)) == []
        assert list(solo.alltoall(10)) == []

    def test_sendrecv_kind_is_p2p(self, comm):
        ops = list(comm.sendrecv(0, 32, 2, tag=3))
        kinds = {op.kind for op in ops if hasattr(op, "kind")}
        assert kinds == {"p2p"}


class TestRankContext:
    def test_fields(self):
        comm = Communicator(rank=0, size=2)
        ctx = RankContext(rank=0, size=2, comm=comm, rng=SeededRNG(1))
        assert ctx.comm is comm
        assert ctx.params == {}
