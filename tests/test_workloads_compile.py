"""Unit tests of the op-array compiler (repro.workloads.compile).

The equivalence of compiled and generator execution is covered by the
reference matrix in ``tests/test_reference_engine.py``; this module pins
down the compiler itself: lane structure, the dynamic-program fallbacks, the
schedule cache, and the compile-time noise bookkeeping.
"""

import math
import tracemalloc
from array import array

import pytest

from cells import REGISTRY_CELLS, fingerprint, run_cell
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
    ComputeOp,
    IrecvOp,
    RecvOp,
    SendOp,
    WaitallOp,
    WaitOp,
)
from repro.scenario import Scenario, ScenarioSpec
from repro.sim.engine import Simulator
from repro.util.rng import SeededRNG
from repro.workloads import compile as compile_module
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

    def test_waiting_on_a_status_is_an_unknown_request(self):
        """The full-waitall check compares handles by identity: ``==`` would
        reach the status stand-in and report a result inspection instead."""

        class WaitsOnStatus(_StaticPingWorkload):
            def program(self, ctx):
                if ctx.rank == 0:
                    yield IrecvOp(source=1, tag=0)
                    status = yield RecvOp(source=1, tag=1)
                    yield WaitallOp([status])
                else:
                    yield SendOp(0, 64, 0)
                    yield SendOp(0, 64, 1)

        info = compile_info(WaitsOnStatus(nprocs=2), 0)
        assert info == {
            "compiled": False,
            "fallback": "wait on an unknown or already-waited request",
        }

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
    def test_cold_and_warm_schedule_cache_agree(self):
        cold = run_cell(REGISTRY_CELLS[0])
        warm = run_cell(REGISTRY_CELLS[0])
        assert fingerprint(cold) == fingerprint(warm)

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


SHARED_LANES = ("op", "nbytes", "tag", "seconds", "kind")


def cached_ranks(workload):
    """Every rank's cached lanes of ``workload``, compiling them first."""
    for rank in range(workload.nprocs):
        compile_info(workload, rank)
    schedules = compile_module._cache[workload.schedule_cache_key()]
    return [schedules.ranks[rank][0] for rank in range(workload.nprocs)]


def exact(lane):
    """A lane's values with their types; ``repr`` keeps the sign of a zero."""
    return tuple((type(value), repr(value)) for value in lane)


def cached_lane_images():
    """The exact image of every cached lane."""
    return {
        (key, rank, name): exact(getattr(lanes, name))
        for key, schedules in compile_module._cache.items()
        for rank, (lanes, _reason) in schedules.ranks.items()
        if lanes is not None
        for name in ("a", *SHARED_LANES)
    }


def recounted_slots():
    """The cache's budget use recounted independently: ``a`` lanes plus each
    distinct shared lane object once per configuration."""
    total = 0
    for schedules in compile_module._cache.values():
        ranks = [lanes for lanes, _reason in schedules.ranks.values() if lanes is not None]
        total += sum(len(lanes.a) for lanes in ranks)
        lanes = [getattr(lanes, name) for lanes in ranks for name in SHARED_LANES]
        total += sum(map(len, {id(lane): lane for lane in lanes}.values()))
    return total


class _ZerosWorkload(_StaticPingWorkload):
    """One compute op per rank, its base time rank ``r``'s entry of ``zeros``:
    values ``==`` (and ``hash``) cannot tell apart."""

    name = "zeros-test"

    def __init__(self, zeros, **kwargs):
        self.zeros = zeros
        super().__init__(len(zeros), **kwargs)

    def parameters(self):
        return {"zeros": self.zeros}

    def program(self, ctx):
        yield ComputeOp(self.zeros[ctx.rank])


class _TaggedPing(_StaticPingWorkload):
    """The static ping under a parameter that changes the cache key, not the ops."""

    def __init__(self, nprocs, label, **kwargs):
        self.label = label
        super().__init__(nprocs, **kwargs)

    def parameters(self):
        return {"label": self.label}


class TestLaneSharing:
    """Ranks of one configuration share every lane but ``a``, exactly."""

    def test_bt16_ranks_share_their_five_lanes_and_own_their_peers(self):
        ranks = cached_ranks(create_workload("bt", nprocs=16, scale=0.05))
        for name in SHARED_LANES:
            lanes = [getattr(lanes, name) for lanes in ranks]
            objects = {id(lane) for lane in lanes}
            values = {exact(lane) for lane in lanes}
            # Equal lanes are one object, and there are fewer than ranks.
            assert len(objects) == len(values) < len(ranks), name
        assert len({id(lanes.a) for lanes in ranks}) == len(ranks)
        assert len({id(lanes) for lanes in ranks}) == len(ranks)

    def test_shared_lanes_hold_the_replayed_values(self):
        workload = create_workload("bt", nprocs=16, scale=0.05)
        for rank, lanes in enumerate(cached_ranks(workload)):
            private = compile_rank_lanes(workload, rank)
            for name in ("a", *SHARED_LANES):
                assert exact(getattr(lanes, name)) == exact(getattr(private, name)), (
                    rank,
                    name,
                )

    def test_uncached_lanes_stay_private(self):
        workload = create_workload("bt", nprocs=4, scale=0.05)
        first, second = compile_rank_lanes(workload, 0), compile_rank_lanes(workload, 0)
        for name in ("a", *SHARED_LANES):
            assert getattr(first, name) is not getattr(second, name)
            assert type(getattr(first, name)) is list

    def test_two_cache_keys_never_alias_a_lane(self):
        first, second = _TaggedPing(2, "first"), _TaggedPing(2, "second")
        assert first.schedule_cache_key() != second.schedule_cache_key()
        held = [lanes for workload in (first, second) for lanes in cached_ranks(workload)]
        assert held[0].op == held[2].op and held[0].tag == held[2].tag
        first_ids = {id(getattr(lanes, n)) for lanes in held[:2] for n in ("a", *SHARED_LANES)}
        second_ids = {id(getattr(lanes, n)) for lanes in held[2:] for n in ("a", *SHARED_LANES)}
        assert not first_ids & second_ids

    def test_clear_and_eviction_drop_the_pool(self, monkeypatch):
        workload = create_workload("bt", nprocs=9, scale=0.05)
        old = cached_ranks(workload)
        clear_schedule_cache()
        assert not compile_module._cache and compile_module._cached_slots == 0
        new = cached_ranks(workload)
        for before, after in zip(old, new):
            for name in SHARED_LANES:
                assert getattr(before, name) is not getattr(after, name)
        # Eviction: a second configuration pushes the first (and its pool) out.
        monkeypatch.setattr(compile_module, "_CACHE_MAX_KEYS", 1)
        cached_ranks(create_workload("bt", nprocs=4, scale=0.05))
        assert workload.schedule_cache_key() not in compile_module._cache
        again = cached_ranks(workload)
        for before, after in zip(new, again):
            for name in SHARED_LANES:
                assert getattr(before, name) is not getattr(after, name)
        assert compile_module._cached_slots == recounted_slots()

    def test_zeros_of_different_type_or_sign_never_merge(self):
        np = pytest.importorskip("numpy")
        zeros = (0, 0.0, -0.0, False, np.float64(0.0), np.float64(-0.0), np.int64(0))
        ranks = cached_ranks(_ZerosWorkload(zeros))
        seconds = [lanes.seconds for lanes in ranks]
        assert len({id(lane) for lane in seconds}) == len(zeros)
        assert [exact(lane) for lane in seconds] == [exact([zero]) for zero in zeros]
        assert math.copysign(1.0, seconds[2][0]) == -1.0
        # The lanes that do agree exactly are still shared.
        assert len({id(lanes.op) for lanes in ranks}) == 1
        assert len({id(lanes.kind) for lanes in ranks}) == 1
        # Equal values that are distinct objects still merge.
        equal = (float("3e-6"), float("3e-6"))
        assert equal[0] is not equal[1]
        again = cached_ranks(_ZerosWorkload(equal))
        assert again[0].seconds is again[1].seconds

    def test_values_the_pool_cannot_compare_exactly_stay_private(self):
        """An unhashable value (a list tag) or one of a type the pool cannot
        compare exactly (a user class equal to anything) keeps its lane
        private, and the rank still compiles."""

        class Anything:
            def __eq__(self, other):
                return True

            def __hash__(self):
                return 0

        class Unpoolable(_StaticPingWorkload):
            def program(self, ctx):
                peer = (ctx.rank + 1) % 2
                yield SendOp(peer, 64, tag=[0], kind=Anything())
                yield RecvOp(source=peer)

        ranks = cached_ranks(Unpoolable(nprocs=2))
        assert ranks[0].tag == ranks[1].tag and ranks[0].tag is not ranks[1].tag
        assert ranks[0].kind == ranks[1].kind and ranks[0].kind is not ranks[1].kind
        assert ranks[0].op is ranks[1].op
        assert compile_module._cached_slots == recounted_slots()

    @pytest.mark.parametrize(
        "engine,engine_jobs", [("scalar", 1), ("auto", 1), ("auto", 2)]
    )
    def test_a_run_never_writes_a_cached_lane(self, engine, engine_jobs):
        spec = ScenarioSpec(
            workload={"name": "bt", "nprocs": 9, "scale": 0.05},
            seed=3,
            network="noiseless:latency=25e-6",
            engine=engine,
            engine_jobs=engine_jobs,
        )
        held = cached_ranks(spec.workload.build())
        before = cached_lane_images()
        result = Scenario(spec).run().result
        if engine_jobs == 2:
            assert "fallback" not in result.parallel_info
        assert cached_lane_images() == before
        # The run drove the cached lanes themselves, not a recompiled copy.
        assert cached_ranks(spec.workload.build()) == held

    def test_cache_holds_at_most_forty_percent_of_unshared_lanes(self):
        """Deterministic: traced allocations, no clock or RSS."""
        workload = create_workload("bt", nprocs=64, scale=0.05)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            private = [compile_rank_lanes(workload, rank) for rank in range(64)]
            unshared = tracemalloc.get_traced_memory()[0] - base
            del private
            base = tracemalloc.get_traced_memory()[0]
            cached_ranks(workload)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert retained <= 0.4 * unshared, (retained, unshared)

    def test_budget_counts_a_lanes_and_each_distinct_lane_once(self):
        workload = create_workload("bt", nprocs=16, scale=0.05)
        ranks = cached_ranks(workload)
        ops = sum(map(len, ranks))
        # Every rank's `a` lane, then each distinct lane once: well under the
        # six lanes a rank an unshared cache would hold.
        assert ops < compile_module._cached_slots == recounted_slots() < 3 * ops
        cached_ranks(create_workload("lu", nprocs=4, scale=0.05))
        assert compile_module._cached_slots == recounted_slots()


class TestNarrowPeerLanes:
    """A cached ``a`` lane is an ``array`` of the narrowest signed typecode."""

    @pytest.mark.parametrize(
        "values, typecode",
        [
            ([ANY_SOURCE, 0, 127], "b"),
            ([128], "h"),
            ([-128], "b"),
            ([-129], "h"),
            ([32767], "h"),
            ([32768], "i"),
            ([-(2**31), 2**31 - 1], "i"),
            ([2**31], "q"),
            ([-(2**31) - 1], "q"),
            ([2**63 - 1, -(2**63)], "q"),
            ([], "b"),
        ],
    )
    def test_narrowest_typecode_at_every_boundary(self, values, typecode):
        lane = compile_module._narrowed(list(values))
        assert type(lane) is array and lane.typecode == typecode
        assert exact(lane) == exact(values)

    @pytest.mark.parametrize(
        "values", [[1, True], [1, 2.0], [None], [0, 2**63], [-(2**63) - 1]]
    )
    def test_anything_but_an_int_in_range_keeps_the_list(self, values):
        lane = list(values)
        assert compile_module._narrowed(lane) is lane

    def test_a_numpy_integer_keeps_the_list(self):
        np = pytest.importorskip("numpy")
        lane = [0, np.int64(1)]
        assert compile_module._narrowed(lane) is lane

    def test_bt16_cached_peer_lanes_equal_the_private_lists(self):
        workload = create_workload("bt", nprocs=16, scale=0.05)
        for rank, lanes in enumerate(cached_ranks(workload)):
            private = compile_rank_lanes(workload, rank)
            assert type(lanes.a) is array and lanes.a.typecode == "b", rank
            assert type(private.a) is list, rank
            assert exact(lanes.a) == exact(private.a), rank
        assert compile_module._cached_slots == recounted_slots()


class TestCacheEviction:
    """The LRU bounds: ops budget and key count (monkeypatched small)."""

    def test_rank_bigger_than_the_budget_is_not_cached(self, monkeypatch):
        workload = create_workload("bt", nprocs=4, scale=0.05)
        ops = len(compile_rank_lanes(workload, 0))
        monkeypatch.setattr(compile_module, "_CACHE_MAX_OPS", 6 * ops - 1)
        first = compile_program(workload, make_ctx(workload)).lanes
        second = compile_program(workload, make_ctx(workload)).lanes
        assert first is not second
        assert not compile_module._cache and compile_module._cached_slots == 0
        assert compile_info(workload, 0) == {"compiled": True, "ops": ops}

    def test_crossing_the_budget_evicts_the_oldest_key_first(self, monkeypatch):
        workloads = [create_workload("bt", nprocs=4, iterations=i) for i in (3, 2, 1)]
        keys = [w.schedule_cache_key() for w in workloads]
        cached_ranks(workloads[0])
        cached_ranks(workloads[1])
        # Room for what the first two hold and a little more, not a third.
        monkeypatch.setattr(compile_module, "_CACHE_MAX_OPS", compile_module._cached_slots + 1)
        cached_ranks(workloads[2])
        assert list(compile_module._cache) == keys[1:]
        assert compile_module._cached_slots == recounted_slots() <= compile_module._CACHE_MAX_OPS

    def test_the_key_limit_evicts_in_lru_order(self, monkeypatch):
        monkeypatch.setattr(compile_module, "_CACHE_MAX_KEYS", 2)
        a, b, c = (create_workload("cg", nprocs=4, iterations=i) for i in (1, 2, 3))
        cached_ranks(a)
        cached_ranks(b)
        compile_info(a, 0)  # a hit makes `a` the most recently used
        cached_ranks(c)
        assert list(compile_module._cache) == [a.schedule_cache_key(), c.schedule_cache_key()]
        assert compile_module._cached_slots == recounted_slots()

    def test_compile_info_is_identical_before_and_after_eviction(self, monkeypatch):
        workloads = [
            create_workload("bt", nprocs=4, scale=0.05),
            _CompositeWaits(3, "twice"),
            _CompositeWaits(3, "gap"),
            create_workload("random-sender", nprocs=4),
        ]

        def infos():
            return [compile_info(w, rank) for w in workloads for rank in range(w.nprocs)]

        before = infos()
        monkeypatch.setattr(compile_module, "_CACHE_MAX_KEYS", 1)
        cached_ranks(create_workload("lu", nprocs=4, scale=0.05))
        assert len(compile_module._cache) == 1
        assert infos() == before


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
