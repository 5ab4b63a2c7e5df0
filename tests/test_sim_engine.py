"""Tests for the discrete-event simulation engine (repro.sim.engine)."""

import pytest

from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.sim.engine import Simulator
from repro.sim.errors import DeadlockError, ProgramError, SimulationError
from repro.sim.machine import MachineConfig
from repro.sim.network import NetworkConfig


def make_sim(nprocs=2, **kwargs):
    kwargs.setdefault("network", NetworkConfig.noiseless(seed=1))
    return Simulator(nprocs=nprocs, seed=1, **kwargs)


class TestBasicPingPong:
    def test_blocking_send_recv(self):
        def program(ctx):
            comm = ctx.comm
            if ctx.rank == 0:
                yield comm.send(1, 100, tag=5)
            else:
                status = yield comm.recv(source=0, tag=5)
                assert status.source == 0
                assert status.nbytes == 100
                assert status.tag == 5

        result = make_sim().run([program])
        assert result.makespan > 0.0
        assert result.stats.messages_sent == 1

    def test_status_reports_kind_p2p(self):
        def program(ctx):
            comm = ctx.comm
            if ctx.rank == 0:
                yield comm.send(1, 8)
            else:
                status = yield comm.recv(source=0)
                assert status.kind == "p2p"

        make_sim().run([program])

    def test_multiple_iterations(self):
        counts = {"recv": 0}

        def program(ctx):
            comm = ctx.comm
            other = 1 - ctx.rank
            for i in range(10):
                if ctx.rank == 0:
                    yield comm.send(other, 64, tag=i)
                    yield comm.recv(source=other, tag=i)
                    counts["recv"] += 1
                else:
                    yield comm.recv(source=other, tag=i)
                    yield comm.send(other, 64, tag=i)

        result = make_sim().run([program])
        assert counts["recv"] == 10
        assert result.stats.messages_sent == 20

    def test_wildcard_receive(self):
        def program(ctx):
            comm = ctx.comm
            if ctx.rank == 0:
                status = yield comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
                assert status.source == 1
            else:
                yield comm.send(0, 32, tag=9)

        make_sim().run([program])


class TestNonBlocking:
    def test_isend_irecv_wait(self):
        def program(ctx):
            comm = ctx.comm
            if ctx.rank == 0:
                req = yield comm.isend(1, 128, tag=1)
                yield comm.wait(req)
            else:
                req = yield comm.irecv(source=0, tag=1)
                status = yield comm.wait(req)
                assert status.nbytes == 128

        make_sim().run([program])

    def test_waitall_returns_statuses_in_order(self):
        def program(ctx):
            comm = ctx.comm
            if ctx.rank == 0:
                for i in range(3):
                    yield comm.send(1, 10 * (i + 1), tag=i)
            else:
                reqs = []
                for i in range(3):
                    req = yield comm.irecv(source=0, tag=i)
                    reqs.append(req)
                statuses = yield comm.waitall(reqs)
                assert [s.nbytes for s in statuses] == [10, 20, 30]

        make_sim().run([program])

    def test_wait_on_send_request_returns_none(self):
        def program(ctx):
            comm = ctx.comm
            if ctx.rank == 0:
                req = yield comm.isend(1, 8)
                outcome = yield comm.wait(req)
                assert outcome is None
            else:
                yield comm.recv(source=0)

        make_sim().run([program])


class TestComputeAndTime:
    def test_compute_advances_local_clock(self):
        def program(ctx):
            yield ctx.comm.compute(1.0)

        result = make_sim(nprocs=1).run([program])
        assert result.makespan == pytest.approx(1.0)
        assert result.rank_finish_times == [pytest.approx(1.0)]

    def test_negative_compute_rejected(self):
        def program(ctx):
            yield ctx.comm.compute(1.0)
            from repro.mpi.ops import ComputeOp

            yield ComputeOp(seconds=-1.0)

        with pytest.raises(ProgramError):
            make_sim(nprocs=1).run([program])

    def test_rank_finish_times_reflect_work(self):
        def program(ctx):
            yield ctx.comm.compute(1.0 if ctx.rank == 0 else 2.0)

        result = make_sim(nprocs=2).run([program])
        assert result.rank_finish_times[1] > result.rank_finish_times[0]

    def test_message_latency_positive(self):
        def program(ctx):
            comm = ctx.comm
            if ctx.rank == 0:
                yield comm.send(1, 1024)
            else:
                yield comm.recv(source=0)

        result = make_sim().run([program])
        assert result.stats.eager_latency.mean > 0.0


class TestSingleUse:
    def test_second_run_raises(self):
        """Regression: a second run() used to silently reuse stale clock and
        transport state; it must fail loudly now."""

        def program(ctx):
            yield ctx.comm.compute(1.0)

        sim = make_sim(nprocs=1)
        first = sim.run([program])
        assert first.makespan == pytest.approx(1.0)
        with pytest.raises(SimulationError, match="single-use"):
            sim.run([program])

    def test_invalid_programs_list_does_not_consume_instance(self):
        """A wrong-length programs list is rejected before any state is
        consumed, so a corrected retry on the same instance must work."""

        def program(ctx):
            yield ctx.comm.compute(1.0)

        sim = make_sim(nprocs=2)
        with pytest.raises(ValueError, match="program factories"):
            sim.run([program, program, program])
        result = sim.run([program])
        assert result.makespan == pytest.approx(1.0)

    def test_failed_run_still_marks_instance_used(self):
        def bad_program(ctx):
            yield ctx.comm.compute(0.0)
            raise RuntimeError("boom")

        def good_program(ctx):
            yield ctx.comm.compute(0.0)

        sim = make_sim(nprocs=1)
        with pytest.raises(RuntimeError):
            sim.run([bad_program])
        with pytest.raises(SimulationError, match="single-use"):
            sim.run([good_program])


class TestBurstDelivery:
    def test_same_time_deliveries_reach_policy_as_burst(self):
        """Deliveries landing at one receiver at one timestamp arrive as a
        single on_burst_delivered call."""
        from repro.runtime.protocol import StandardFlowControl

        class RecordingPolicy(StandardFlowControl):
            name = "recording"

            def __init__(self):
                self.single = []
                self.bursts = []

            def on_message_delivered(self, dst, src, nbytes, tag, kind, now):
                self.single.append((dst, src, nbytes))

            def on_burst_delivered(self, dst, messages, now):
                self.bursts.append((dst, list(messages)))

        policy = RecordingPolicy()
        # A noiseless, contention-free network delivers equal-size messages
        # posted at the same time at exactly the same timestamp.
        network = NetworkConfig.noiseless(seed=1)

        def program(ctx):
            if ctx.rank == 2:
                yield ctx.comm.recv(source=0, tag=0)
                yield ctx.comm.recv(source=1, tag=0)
            else:
                yield ctx.comm.send(2, 64, tag=0)

        sim = Simulator(nprocs=3, seed=1, network=network, policy=policy)
        sim.run([program])
        assert policy.bursts, "expected at least one coalesced burst"
        dst, messages = policy.bursts[0]
        assert dst == 2
        assert [(src, nbytes) for src, nbytes, _, _ in messages] == [(0, 64), (1, 64)]

    @staticmethod
    def _run(policy, network, engine="auto", tracer=True):
        from repro.workloads.registry import create_workload

        # Its collectives land same-time runs on one receiver when the
        # network is noiseless, beside plenty of lone deliveries.
        workload = create_workload("collective-mix", nprocs=8, scale=0.2)
        return Simulator(
            8, network=network, policy=policy, seed=5, engine=engine, tracer=tracer
        ).run([workload.program_for])

    @staticmethod
    def _arrivals(result):
        """Every rank's physical records as ``(dst, src, nbytes, tag, kind, time)``."""
        return sorted(
            (rank, r.sender, r.nbytes, r.tag, r.kind, r.time)
            for rank in range(result.nprocs)
            for r in result.trace_for(rank).physical
        )

    @pytest.mark.parametrize("network", ["default", "noiseless"])
    def test_burst_only_policy_sees_every_delivery(self, network):
        """The burst hook is the transport's one delivery hook: a policy
        overriding only it hears runs of one too."""
        from repro.runtime.protocol import StandardFlowControl

        class BurstOnly(StandardFlowControl):
            seen: list

            def on_burst_delivered(self, dst, messages, now):
                self.seen.extend((dst, *m, now) for m in messages)

        policy = BurstOnly()
        policy.seen = []
        config = NetworkConfig() if network == "default" else NetworkConfig.noiseless()
        result = self._run(policy, config)
        assert sorted(policy.seen) == self._arrivals(result)

    def test_message_only_policy_sees_each_delivery_once(self):
        from repro.runtime.protocol import StandardFlowControl

        class MessageOnly(StandardFlowControl):
            seen: list

            def on_message_delivered(self, dst, src, nbytes, tag, kind, now):
                self.seen.append((dst, src, nbytes, tag, kind, now))

        policy = MessageOnly()
        policy.seen = []
        result = self._run(policy, NetworkConfig.noiseless())
        assert sorted(policy.seen) == self._arrivals(result)

    def test_call_sequence_ignores_tracer_and_engine(self):
        """One ``(dst, messages, now)`` call sequence whether the tracer is
        on or off and whatever the engine, covering every message sent."""
        from repro.runtime.protocol import StandardFlowControl

        class Recording(StandardFlowControl):
            calls: list

            def on_burst_delivered(self, dst, messages, now):
                self.calls.append((dst, list(messages), now))

        sequences = []
        for engine in ("scalar", "auto"):
            for tracer in (True, False):
                policy = Recording()
                policy.calls = []
                result = self._run(policy, NetworkConfig.noiseless(), engine, tracer)
                assert sum(len(m) for _, m, _ in policy.calls) == result.stats.messages_sent
                sequences.append(policy.calls)
        assert any(len(m) > 1 for _, m, _ in sequences[0])
        assert any(len(m) == 1 for _, m, _ in sequences[0])
        assert all(calls == sequences[0] for calls in sequences)


class TestErrors:
    def test_deadlock_detection(self):
        def program(ctx):
            # Both ranks wait for a message that is never sent.
            yield ctx.comm.recv(source=1 - ctx.rank, tag=0)

        with pytest.raises(DeadlockError) as excinfo:
            make_sim().run([program])
        assert set(excinfo.value.blocked_ranks) == {0, 1}

    def test_deadlock_names_the_call_each_rank_is_stuck_in(self):
        def program(ctx):
            yield ctx.comm.recv(source=1 - ctx.rank, tag=0)

        with pytest.raises(
            DeadlockError, match=r"\(rank 0: recv, rank 1: recv; pending queues: "
        ):
            make_sim().run([program])

    @pytest.mark.parametrize(
        "engine,engine_jobs", [("scalar", 1), ("auto", 1), ("scalar", 2), ("auto", 2)]
    )
    def test_compiled_deadlock_names_each_call_on_every_engine(self, engine, engine_jobs):
        """A partitioned run merges the calls across its partitions."""
        from repro.workloads.base import Workload

        class CrossedReceives(Workload):
            name = "crossed-receives-test"

            def default_iterations(self):
                return 1

            def program(self, ctx):
                if ctx.rank % 2 == 0:
                    yield ctx.comm.recv(source=ctx.rank + 1, tag=0)
                else:
                    request = yield ctx.comm.irecv(source=ctx.rank - 1, tag=0)
                    yield ctx.comm.waitall([request])

        sim = make_sim(nprocs=4, tracer=False, engine=engine, engine_jobs=engine_jobs)
        with pytest.raises(DeadlockError) as excinfo:
            sim.run([CrossedReceives(nprocs=4).program_for])
        assert excinfo.value.blocked_ranks == [0, 1, 2, 3]
        assert (
            "(rank 0: recv, rank 1: waitall, rank 2: recv, rank 3: waitall; pending queues: "
            in str(excinfo.value)
        )
        assert sim.parallel_info is None  # no fallback: jobs=2 did partition

    @pytest.mark.parametrize("engine", ["scalar", "auto"])
    def test_compiled_blocking_ops_name_their_call(self, engine):
        """Blocking sends and receives suspend outside ``_block_on``; the
        deadlock report must still name them."""
        from repro.workloads.base import Workload

        class Stuck(Workload):
            name = "stuck-blocking-test"

            def default_iterations(self):
                return 1

            def program(self, ctx):
                if ctx.rank < 2:  # both receive first: never satisfied
                    yield ctx.comm.recv(source=1 - ctx.rank, tag=0)
                elif ctx.rank == 2:  # rendezvous-sized: rank 3 never receives
                    yield ctx.comm.send(3, 1 << 20, tag=0)
                else:
                    yield ctx.comm.compute(1e-6)

        sim = make_sim(nprocs=4, tracer=False, engine=engine)
        with pytest.raises(DeadlockError) as excinfo:
            sim.run([Stuck(nprocs=4).program_for])
        assert all(state.compiled is not None for state in sim._ranks)
        assert excinfo.value.blocked_ranks == [0, 1, 2]
        assert "(rank 0: recv, rank 1: recv, rank 2: send; pending queues: " in str(
            excinfo.value
        )

    def test_partial_deadlock_lists_blocked_rank(self):
        def program(ctx):
            if ctx.rank == 0:
                yield ctx.comm.recv(source=1, tag=7)
            else:
                yield ctx.comm.compute(1e-6)

        with pytest.raises(DeadlockError) as excinfo:
            make_sim().run([program])
        assert excinfo.value.blocked_ranks == [0]

    def test_invalid_yield_raises_program_error(self):
        def program(ctx):
            yield "not an operation"

        with pytest.raises(ProgramError):
            make_sim(nprocs=1).run([program])

    def test_bare_none_yield_names_the_rank(self):
        def program(ctx):
            yield ctx.comm.compute(1e-6)
            if ctx.rank == 1:
                yield None

        with pytest.raises(ProgramError, match=r"rank 1 yielded an unsupported operation: None"):
            make_sim().run([program])

    def test_collective_without_yield_from_says_so(self):
        """``yield comm.bcast(n)`` hands the engine a generator object."""

        def program(ctx):
            if ctx.rank == 1:
                yield ctx.comm.bcast(40)
            else:
                yield from ctx.comm.bcast(40)

        with pytest.raises(ProgramError, match=r"rank 1 yielded a generator .*'yield from'"):
            make_sim().run([program])

    def test_non_generator_factory_rejected(self):
        def program(ctx):
            return 42

        with pytest.raises(ProgramError):
            make_sim(nprocs=1).run([program])

    def test_wrong_number_of_programs(self):
        def program(ctx):
            yield ctx.comm.compute(0.0)

        with pytest.raises(ValueError):
            make_sim(nprocs=3).run([program, program])

    def test_max_events_guard(self):
        def program(ctx):
            for _ in range(1000):
                yield ctx.comm.compute(1e-9)

        with pytest.raises(SimulationError, match="max_events"):
            make_sim(nprocs=1, max_events=50).run([program])

    def test_max_events_guard_zero_delay_livelock(self):
        """Zero-cost self-resumes never advance time but still hit the guard."""

        def program(ctx):
            while True:
                yield ctx.comm.compute(0.0)

        with pytest.raises(SimulationError, match="max_events"):
            make_sim(nprocs=1, max_events=100).run([program])

    def test_time_backwards_event_rejected(self):
        """An event behind the global clock (only possible by bypassing the
        schedule_at clamp) aborts the simulation instead of corrupting it."""

        def program(ctx):
            yield ctx.comm.compute(1.0)

        sim = make_sim(nprocs=1)
        sim._queue.push(0.5, lambda: sim._queue.push(0.1, lambda: None))
        with pytest.raises(SimulationError, match="time went backwards"):
            sim.run([program])

    def test_deadlock_report_includes_pending_queues(self):
        def program(ctx):
            if ctx.rank == 0:
                yield ctx.comm.recv(source=1, tag=3)
            else:
                yield ctx.comm.compute(1e-6)

        with pytest.raises(DeadlockError, match="pending queues"):
            make_sim().run([program])

    def test_invalid_nprocs(self):
        with pytest.raises(ValueError):
            Simulator(nprocs=0)

    def test_application_exception_propagates(self):
        def program(ctx):
            yield ctx.comm.compute(0.0)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            make_sim(nprocs=1).run([program])


class TestDeterminism:
    def _run(self, seed):
        def program(ctx):
            comm = ctx.comm
            other = 1 - ctx.rank
            for i in range(20):
                yield ctx.comm.compute(1e-6 * ctx.rng.lognormal_factor(0.2))
                if ctx.rank == 0:
                    yield comm.send(other, 64, tag=i)
                    yield comm.recv(source=other, tag=i)
                else:
                    yield comm.recv(source=other, tag=i)
                    yield comm.send(other, 64, tag=i)

        sim = Simulator(nprocs=2, seed=seed, network=NetworkConfig(seed=seed))
        return sim.run([program])

    def test_same_seed_same_makespan(self):
        assert self._run(11).makespan == self._run(11).makespan

    def test_different_seed_different_makespan(self):
        assert self._run(11).makespan != self._run(12).makespan


class TestSimulationResult:
    def test_trace_for_without_tracer_raises(self):
        def program(ctx):
            yield ctx.comm.compute(0.0)

        result = make_sim(nprocs=1, tracer=False).run([program])
        with pytest.raises(SimulationError):
            result.trace_for(0)

    def test_buffer_stats_present_per_rank(self):
        def program(ctx):
            yield ctx.comm.compute(0.0)

        result = make_sim(nprocs=3).run([program])
        assert len(result.buffer_stats) == 3

    def test_events_processed_positive(self):
        def program(ctx):
            yield ctx.comm.compute(0.0)

        result = make_sim(nprocs=1).run([program])
        assert result.events_processed > 0


class TestCollectivesThroughEngine:
    def test_barrier_synchronises(self):
        after = {}

        def program(ctx):
            yield ctx.comm.compute(0.001 * (ctx.rank + 1))
            yield from ctx.comm.barrier()
            after[ctx.rank] = True

        make_sim(nprocs=4).run([program])
        assert len(after) == 4

    def test_bcast_from_nonzero_root(self):
        def program(ctx):
            yield from ctx.comm.bcast(256, root=2)

        result = make_sim(nprocs=4).run([program])
        # Binomial broadcast among 4 ranks sends exactly 3 messages.
        assert result.stats.collective_messages == 3

    def test_allreduce_message_count(self):
        def program(ctx):
            yield from ctx.comm.allreduce(64)

        result = make_sim(nprocs=4).run([program])
        # reduce (3 messages) + broadcast (3 messages)
        assert result.stats.collective_messages == 6

    def test_alltoall_each_rank_receives_all_peers(self):
        def program(ctx):
            yield from ctx.comm.alltoall(32)

        result = make_sim(nprocs=4).run([program])
        assert result.stats.collective_messages == 4 * 3
        for rank in range(4):
            senders = {r.sender for r in result.trace_for(rank).physical}
            assert senders == {p for p in range(4) if p != rank}

    def test_rendezvous_collective_is_deadlock_free(self):
        def program(ctx):
            yield from ctx.comm.alltoall(64 * 1024)  # above the eager threshold

        result = make_sim(nprocs=3).run([program])
        assert result.stats.rendezvous_messages == 6
