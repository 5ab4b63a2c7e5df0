"""Unit tests of the op-array compiler (repro.workloads.compile).

The equivalence of compiled and generator execution is covered by
``tests/test_workloads_oparray_equivalence.py``; this module pins down the
compiler itself: lane structure, the dynamic-program fallbacks, the schedule
cache, and the compile-time noise bookkeeping.
"""

import pytest

from repro.mpi.communicator import Communicator, RankContext
from repro.mpi.constants import ANY_SOURCE, KIND_COLLECTIVE, KIND_P2P
from repro.mpi.ops import (
    OP_COMPUTE,
    OP_IRECV,
    OP_ISEND,
    OP_RECV,
    OP_SEND,
    OP_WAIT,
    OP_WAITALL,
    CompiledProgram,
    IrecvOp,
    RecvOp,
    SendOp,
    WaitallOp,
    WaitOp,
)
from repro.sim.engine import Simulator
from repro.util.rng import SeededRNG
from repro.workloads.base import Workload
from repro.workloads.compile import (
    clear_schedule_cache,
    compile_info,
    compile_program,
    compile_rank_lanes,
)
from repro.workloads.registry import create_workload


def make_ctx(workload, rank=0, seed=5):
    return RankContext(
        rank=rank,
        size=workload.nprocs,
        comm=Communicator(rank=rank, size=workload.nprocs),
        rng=SeededRNG(seed, "rank", rank),
    )


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_schedule_cache()
    yield
    clear_schedule_cache()


class TestLaneStructure:
    def test_bt_rank0_compiles_to_wellformed_lanes(self):
        workload = create_workload("bt", nprocs=9, scale=0.05)
        lanes = compile_rank_lanes(workload, 0)
        assert lanes is not None and len(lanes) > 0
        n = len(lanes)
        assert (
            len(lanes.op)
            == len(lanes.a)
            == len(lanes.nbytes)
            == len(lanes.tag)
            == len(lanes.seconds)
            == len(lanes.kind)
            == n
        )
        valid = {OP_COMPUTE, OP_SEND, OP_ISEND, OP_RECV, OP_IRECV, OP_WAITALL}
        assert set(lanes.op) <= valid
        for i in range(n):
            code = lanes.op[i]
            if code in (OP_SEND, OP_ISEND, OP_RECV, OP_IRECV):
                assert lanes.kind[i] in (KIND_P2P, KIND_COLLECTIVE)
            else:
                assert lanes.kind[i] is None
            if code == OP_COMPUTE:
                assert lanes.seconds[i] >= 0.0
                assert lanes.a[i] in (0, 1)
            if code == OP_WAITALL:
                assert lanes.a[i] >= 0

    def test_op_counts_match_generator_yields(self):
        workload = create_workload("cg", nprocs=8, scale=0.1)
        ctx = make_ctx(workload, rank=1)
        yielded = sum(1 for _ in workload.program(ctx))
        lanes = compile_rank_lanes(workload, 1)
        assert lanes is not None
        assert len(lanes) == yielded

    def test_every_registry_paper_workload_compiles(self):
        for name, nprocs in [("bt", 4), ("cg", 4), ("lu", 4), ("is", 4), ("sweep3d", 6)]:
            workload = create_workload(name, nprocs=nprocs, scale=0.02)
            for rank in range(nprocs):
                assert compile_rank_lanes(workload, rank) is not None, (name, rank)


class _StaticPingWorkload(Workload):
    """Minimal two-rank static workload used by the opt-out tests."""

    name = "static-ping-test"

    def default_iterations(self):
        return 3

    def program(self, ctx):
        comm = ctx.comm
        for i in range(self.iterations):
            if ctx.rank == 0:
                yield comm.send(1, 256, tag=i % 4)
            elif ctx.rank == 1:
                yield comm.recv(source=0, tag=i % 4)


class TestFallbacks:
    def test_compile_supported_false_opts_out(self):
        class OptedOut(_StaticPingWorkload):
            compile_supported = False

        workload = OptedOut(nprocs=2)
        ctx = make_ctx(workload)
        assert workload.compile_program(ctx) is None
        # program_for then hands the engine the plain generator.
        assert hasattr(workload.program_for(ctx), "send")

    def test_prefetch_compute_noise_false_opts_out(self):
        workload = create_workload("random-sender", nprocs=4)
        ctx = make_ctx(workload)
        assert workload.compile_program(ctx) is None

    def test_direct_rng_draw_falls_back(self):
        class DrawsDirectly(_StaticPingWorkload):
            def program(self, ctx):
                yield ctx.comm.compute(1e-6 * (1 + ctx.rng.integers(0, 3)))

        assert compile_rank_lanes(DrawsDirectly(nprocs=2), 0) is None

    def test_partial_waitall_compiles_to_op_wait(self):
        """A contiguous partial wait lowers to OP_WAIT (offset, count)."""

        class PartialWait(_StaticPingWorkload):
            def program(self, ctx):
                if ctx.rank == 0:
                    first = yield IrecvOp(source=1, tag=0)
                    second = yield IrecvOp(source=1, tag=1)
                    yield WaitallOp([first])  # leaves `second` outstanding
                    yield WaitallOp([second])
                else:
                    yield SendOp(0, 64, 0)
                    yield SendOp(0, 64, 1)

        lanes = compile_rank_lanes(PartialWait(nprocs=2), 0)
        assert lanes is not None
        assert lanes.op == [OP_IRECV, OP_IRECV, OP_WAIT, OP_WAITALL]
        # First wait covers pending[0:1]; the second drains the full set.
        assert (lanes.a[2], lanes.nbytes[2]) == (0, 1)
        assert lanes.a[3] == 1
        assert compile_rank_lanes(PartialWait(nprocs=2), 1) is not None

    def test_noncontiguous_waitall_falls_back(self):
        class NonContiguous(_StaticPingWorkload):
            def program(self, ctx):
                if ctx.rank == 0:
                    first = yield IrecvOp(source=1, tag=0)
                    second = yield IrecvOp(source=1, tag=1)
                    third = yield IrecvOp(source=1, tag=2)
                    yield WaitallOp([first, third])  # skips `second`
                    yield WaitallOp([second])
                else:
                    for tag in range(3):
                        yield SendOp(0, 64, tag)

        assert compile_rank_lanes(NonContiguous(nprocs=2), 0) is None
        assert compile_rank_lanes(NonContiguous(nprocs=2), 1) is not None
        info = compile_info(NonContiguous(nprocs=2), 0)
        assert info["compiled"] is False
        assert "non-contiguous" in info["fallback"]

    def test_duplicated_wait_request_falls_back(self):
        class DoubleWait(_StaticPingWorkload):
            def program(self, ctx):
                if ctx.rank == 0:
                    first = yield IrecvOp(source=1, tag=0)
                    second = yield IrecvOp(source=1, tag=1)
                    yield WaitallOp([first, first])
                    yield WaitallOp([second])
                else:
                    yield SendOp(0, 64, 0)
                    yield SendOp(0, 64, 1)

        info = compile_info(DoubleWait(nprocs=2), 0)
        assert info["compiled"] is False
        assert "twice" in info["fallback"]

    def test_wait_on_sole_pending_request_compiles(self):
        class SingleWait(_StaticPingWorkload):
            def program(self, ctx):
                if ctx.rank == 0:
                    request = yield IrecvOp(source=1, tag=0)
                    yield WaitOp(request)
                else:
                    yield SendOp(0, 64, 0)

        lanes = compile_rank_lanes(SingleWait(nprocs=2), 0)
        assert lanes is not None
        assert lanes.op == [OP_IRECV, OP_WAITALL]
        assert lanes.a[1] == 1

    def test_result_inspection_falls_back(self):
        class ReadsStatus(_StaticPingWorkload):
            def program(self, ctx):
                if ctx.rank == 0:
                    status = yield RecvOp(source=1, tag=0)
                    if status.source == 1:  # data-dependent control flow
                        yield ctx.comm.compute(1e-6)
                else:
                    yield SendOp(0, 64, 0)

        assert compile_rank_lanes(ReadsStatus(nprocs=2), 0) is None

    def test_result_equality_comparison_falls_back(self):
        """Statuses compare by value at runtime; the replay singleton must
        refuse ``==`` rather than compile the identity-equal branch."""

        class ComparesStatuses(_StaticPingWorkload):
            def program(self, ctx):
                if ctx.rank == 0:
                    first = yield RecvOp(source=1, tag=0)
                    second = yield RecvOp(source=1, tag=1)
                    if first == second:
                        yield ctx.comm.compute(1e-6)
                else:
                    yield SendOp(0, 64, 0)
                    yield SendOp(0, 64, 1)

        assert compile_rank_lanes(ComparesStatuses(nprocs=2), 0) is None

    def test_result_hashing_falls_back(self):
        class HashesStatus(_StaticPingWorkload):
            def program(self, ctx):
                if ctx.rank == 0:
                    status = yield RecvOp(source=1, tag=0)
                    if status in {None}:
                        return
                else:
                    yield SendOp(0, 64, 0)

        assert compile_rank_lanes(HashesStatus(nprocs=2), 0) is None

    def test_leaked_pending_request_falls_back(self):
        class Leaky(_StaticPingWorkload):
            def program(self, ctx):
                if ctx.rank == 0:
                    yield IrecvOp(source=1, tag=0)  # never waited on
                else:
                    yield SendOp(0, 64, 0)

        assert compile_rank_lanes(Leaky(nprocs=2), 0) is None

    def test_program_errors_propagate_at_compile_time(self):
        class Broken(_StaticPingWorkload):
            def program(self, ctx):
                yield ctx.comm.send(self.nprocs + 3, 64)  # invalid destination

        with pytest.raises(ValueError):
            compile_rank_lanes(Broken(nprocs=2), 0)

    def test_wildcard_receives_compile(self):
        class Wildcard(_StaticPingWorkload):
            def program(self, ctx):
                if ctx.rank == 0:
                    for _ in range(2):
                        yield ctx.comm.recv(source=ANY_SOURCE)
                else:
                    yield ctx.comm.send(0, 64)
                    yield ctx.comm.send(0, 64)

        lanes = compile_rank_lanes(Wildcard(nprocs=2), 0)
        assert lanes is not None
        assert lanes.a == [ANY_SOURCE, ANY_SOURCE]


class _CompositeWaits(_StaticPingWorkload):
    """Ring p2p requests around nonblocking collectives, waited per ``shape``."""

    def __init__(self, nprocs, shape, **kwargs):
        self.shape = shape
        super().__init__(nprocs, **kwargs)

    def parameters(self):
        return {"shape": self.shape}

    def program(self, ctx):
        comm = ctx.comm
        right = (ctx.rank + 1) % self.nprocs
        left = (ctx.rank - 1) % self.nprocs
        if self.shape == "mixed":
            # One waitall over a composite and two plain handles.
            coll = yield from comm.ialltoall(256)
            recv_req = yield comm.irecv(left, tag=3)
            send_req = yield comm.isend(right, 64, tag=3)
            yield comm.waitall([coll, recv_req, send_req])
        elif self.shape == "twice":
            coll = yield from comm.ialltoall(256)
            yield comm.wait(coll)
            yield comm.wait(coll)
        elif self.shape == "gap":
            # coll_b sits between coll_a and send_req in posting order.
            coll_a = yield from comm.ialltoall(256)
            recv_req = yield comm.irecv(left, tag=3)
            coll_b = yield from comm.iallgather(128)
            send_req = yield comm.isend(right, 64, tag=3)
            yield comm.waitall([coll_a, send_req])
            yield comm.waitall([recv_req, coll_b])


def wait_ops(lanes):
    """The ``(op, a, nbytes)`` triples of the lanes' wait ops, in program order."""
    return [
        (lanes.op[i], lanes.a[i], lanes.nbytes[i])
        for i in range(len(lanes))
        if lanes.op[i] in (OP_WAIT, OP_WAITALL)
    ]


class TestCollectiveLowering:
    """Collectives reach the lanes as the p2p ops ``yield from`` flattens."""

    def test_runtime_lanes_never_contain_collective_codes(self):
        """Lanes hold only the seven codes, whatever collectives ran."""
        valid = {OP_COMPUTE, OP_SEND, OP_ISEND, OP_RECV, OP_IRECV, OP_WAIT, OP_WAITALL}
        for nprocs in (2, 4, 5):
            workload = create_workload("collective-mix", nprocs=nprocs, iterations=2)
            for rank in range(nprocs):
                lanes = compile_rank_lanes(workload, rank)
                assert lanes is not None, (nprocs, rank)
                assert set(lanes.op) <= valid, (nprocs, rank)

    def test_nonblocking_collective_wait_uses_nonzero_offset(self):
        """collective-mix waits on its composite behind two outstanding p2p
        requests, so its first OP_WAIT must start at transport offset 2."""
        workload = create_workload("collective-mix", nprocs=4, iterations=1)
        lanes = compile_rank_lanes(workload, 0)
        assert lanes is not None
        offsets = [
            (lanes.a[i], lanes.nbytes[i])
            for i in range(len(lanes))
            if lanes.op[i] == OP_WAIT
        ]
        # 6 = the ialltoall composite's 2 * (nprocs - 1) transport requests.
        assert (2, 6) in offsets

    def test_collective_mix_wait_ops_are_pinned(self):
        """Every wait op of rank 0 (4 ranks, 1 iteration) as ``(op, a, nbytes)``:
        blocking collectives drain their own requests with ``OP_WAITALL``,
        the ialltoall composite is ``OP_WAIT(2, 6)`` behind the two p2p
        handles, the trailing iallgather composite a full ``OP_WAITALL`` of 6."""
        lanes = compile_rank_lanes(create_workload("collective-mix", nprocs=4, iterations=1), 0)
        assert lanes is not None and len(lanes) == 58
        assert wait_ops(lanes) == [
            (OP_WAITALL, 3, 0), (OP_WAITALL, 3, 0),
            (OP_WAITALL, 2, 0), (OP_WAITALL, 2, 0), (OP_WAITALL, 2, 0),
            (OP_WAITALL, 2, 0), (OP_WAITALL, 2, 0), (OP_WAITALL, 2, 0),
            (OP_WAIT, 2, 6), (OP_WAITALL, 2, 0), (OP_WAITALL, 6, 0),
            (OP_WAITALL, 2, 0), (OP_WAITALL, 2, 0),
        ]

    def test_waitall_mixing_composite_and_plain_handles_is_one_waitall(self):
        nprocs = 4
        workload = _CompositeWaits(nprocs, "mixed")
        for rank in range(nprocs):
            lanes = compile_rank_lanes(workload, rank)
            assert lanes is not None, rank
            assert wait_ops(lanes) == [(OP_WAITALL, 2 * (nprocs - 1) + 2, 0)]

    def test_waiting_on_a_composite_twice_falls_back_and_still_runs(self):
        workload = _CompositeWaits(3, "twice")
        info = compile_info(workload, 0)
        assert info["compiled"] is False
        assert "already-waited request" in info["fallback"]
        # program_for hands the engine the generator, where a second wait on
        # a completed composite returns at once.
        result = Simulator(nprocs=3, seed=1).run([workload.program_for])
        assert result.stats.summary()["collective_messages"] == 3 * 2

    def test_composite_wait_skipping_a_posted_composite_falls_back(self):
        info = compile_info(_CompositeWaits(3, "gap"), 0)
        assert info["compiled"] is False
        assert "non-contiguous" in info["fallback"]

    def test_compile_info_reports_engagement_and_fallbacks(self):
        compiled = compile_info(create_workload("collective-mix", nprocs=4), 0)
        assert compiled["compiled"] is True and compiled["ops"] > 0
        opted_out = compile_info(create_workload("random-sender", nprocs=4), 0)
        assert opted_out["compiled"] is False
        assert "compile_supported" in opted_out["fallback"]


class TestScheduleCache:
    def test_equal_configurations_share_lanes(self):
        first = create_workload("bt", nprocs=4, scale=0.05)
        second = create_workload("bt", nprocs=4, scale=0.05)
        lanes_a = compile_program(first, make_ctx(first)).lanes
        lanes_b = compile_program(second, make_ctx(second)).lanes
        assert lanes_a is lanes_b

    def test_clear_schedule_cache_forgets(self):
        workload = create_workload("bt", nprocs=4, scale=0.05)
        lanes_a = compile_program(workload, make_ctx(workload)).lanes
        clear_schedule_cache()
        lanes_b = compile_program(workload, make_ctx(workload)).lanes
        assert lanes_a is not lanes_b

    def test_cache_key_separates_configurations(self):
        base = create_workload("bt", nprocs=4, scale=0.05)
        assert base.schedule_cache_key() != create_workload(
            "bt", nprocs=9, scale=0.05
        ).schedule_cache_key()
        assert base.schedule_cache_key() != create_workload(
            "bt", nprocs=4, scale=0.1
        ).schedule_cache_key()
        assert (
            base.schedule_cache_key()
            == create_workload("bt", nprocs=4, scale=0.05).schedule_cache_key()
        )

    def test_dynamic_rank_cached_as_dynamic(self):
        class HalfDynamic(_StaticPingWorkload):
            def program(self, ctx):
                if ctx.rank == 0:
                    yield ctx.comm.recv(source=1)
                else:
                    yield ctx.comm.compute(1e-6 * (1 + ctx.rng.integers(0, 2)))
                    yield ctx.comm.send(0, 64)

        workload = HalfDynamic(nprocs=2)
        assert compile_program(workload, make_ctx(workload, rank=1)) is None
        # Cached verdict on a second call, and independent of rank 0's.
        assert compile_program(workload, make_ctx(workload, rank=1)) is None
        assert compile_program(workload, make_ctx(workload, rank=0)) is not None


class TestCompiledProgramNoise:
    def test_next_noise_matches_prefetch_blocks(self):
        """Execution-time draws must replicate Workload.compute's prefetch."""
        lanes_rng = SeededRNG(7, "rank", 0)
        program = CompiledProgram(None, rng=lanes_rng, sigma=0.05, noise_block=128)
        drawn = [program.next_noise() for _ in range(300)]
        reference_rng = SeededRNG(7, "rank", 0)
        expected = []
        while len(expected) < 300:
            expected.extend(reference_rng.lognormal_block(0.05, 128))
        assert drawn == expected[:300]

    def test_zero_sigma_noise_is_unity_and_draws_nothing(self):
        rng = SeededRNG(7, "rank", 0)
        program = CompiledProgram(None, rng=rng, sigma=0.0, noise_block=128)
        assert [program.next_noise() for _ in range(5)] == [1.0] * 5
        # The underlying bit stream was never touched.
        assert rng.random() == SeededRNG(7, "rank", 0).random()
