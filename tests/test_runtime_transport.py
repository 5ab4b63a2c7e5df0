"""Behavioural tests of the transport protocols via small simulations."""

import pytest

from repro.runtime.protocol import AlwaysRendezvousFlowControl, StandardFlowControl
from repro.runtime.stats import LatencyAccumulator, RuntimeStats
from repro.sim.engine import Simulator
from repro.sim.machine import MachineConfig
from repro.sim.network import NetworkConfig


def run(program, nprocs=2, machine=None, policy=None, network=None):
    sim = Simulator(
        nprocs=nprocs,
        machine=machine or MachineConfig(),
        network=network or NetworkConfig.noiseless(seed=1),
        policy=policy,
        seed=1,
    )
    return sim.run([program])


class TestProtocolSelection:
    def test_small_message_uses_eager(self):
        def program(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(1, 1024)
            else:
                yield ctx.comm.recv(source=0)

        result = run(program)
        assert result.stats.eager_messages == 1
        assert result.stats.rendezvous_messages == 0
        assert result.stats.control_messages == 0

    def test_large_message_uses_rendezvous(self):
        def program(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(1, 1024 * 1024)
            else:
                yield ctx.comm.recv(source=0)

        result = run(program)
        assert result.stats.rendezvous_messages == 1
        assert result.stats.control_messages == 2  # RTS + CTS

    def test_threshold_boundary(self):
        machine = MachineConfig(eager_threshold=1000)

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(1, 1000, tag=0)
                yield ctx.comm.send(1, 1001, tag=1)
            else:
                yield ctx.comm.recv(source=0, tag=0)
                yield ctx.comm.recv(source=0, tag=1)

        result = run(program, machine=machine)
        assert result.stats.eager_messages == 1
        assert result.stats.rendezvous_messages == 1

    def test_always_rendezvous_policy(self):
        def program(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(1, 8)
            else:
                yield ctx.comm.recv(source=0)

        result = run(program, policy=AlwaysRendezvousFlowControl())
        assert result.stats.rendezvous_messages == 1
        assert result.stats.forced_rendezvous == 1

    def test_rendezvous_latency_exceeds_eager(self):
        def program(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(1, 1024, tag=0)      # eager
                yield ctx.comm.send(1, 64 * 1024, tag=1)  # rendezvous
            else:
                yield ctx.comm.recv(source=0, tag=0)
                yield ctx.comm.recv(source=0, tag=1)

        result = run(program)
        assert result.stats.rendezvous_latency.mean > result.stats.eager_latency.mean


class TestUnexpectedMessages:
    def test_unexpected_eager_is_buffered_then_matched(self):
        def program(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(1, 512)
                yield ctx.comm.compute(0.0)
            else:
                # Delay posting the receive so the message arrives unexpected.
                yield ctx.comm.compute(0.01)
                status = yield ctx.comm.recv(source=0)
                assert status.nbytes == 512

        result = run(program)
        assert result.stats.unexpected_deliveries == 1
        assert result.stats.expected_deliveries == 0

    def test_expected_when_receive_preposted(self):
        def program(ctx):
            if ctx.rank == 0:
                yield ctx.comm.compute(0.01)
                yield ctx.comm.send(1, 512)
            else:
                yield ctx.comm.recv(source=0)

        result = run(program)
        assert result.stats.expected_deliveries == 1
        assert result.stats.unexpected_deliveries == 0

    def test_unexpected_overflow_goes_to_heap(self):
        machine = MachineConfig(eager_threshold=16 * 1024, eager_buffer_bytes=1024)

        def program(ctx):
            if ctx.rank == 0:
                for i in range(5):
                    yield ctx.comm.send(1, 1000, tag=i)
            else:
                yield ctx.comm.compute(0.05)
                for i in range(5):
                    yield ctx.comm.recv(source=0, tag=i)

        result = run(program, machine=machine)
        assert result.stats.unexpected_heap_stores >= 1

    def test_late_rendezvous_receive_completes(self):
        def program(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(1, 256 * 1024)
            else:
                yield ctx.comm.compute(0.01)
                status = yield ctx.comm.recv(source=0)
                assert status.nbytes == 256 * 1024

        result = run(program)
        assert result.stats.rendezvous_messages == 1


class TestOrderingSemantics:
    def test_fifo_between_same_pair(self):
        """Messages from one sender with the same tag are received in order."""

        def program(ctx):
            if ctx.rank == 0:
                for i in range(20):
                    yield ctx.comm.send(1, 100 + i, tag=7)
            else:
                sizes = []
                for _ in range(20):
                    status = yield ctx.comm.recv(source=0, tag=7)
                    sizes.append(status.nbytes)
                assert sizes == [100 + i for i in range(20)]

        run(program, network=NetworkConfig(jitter_sigma=1.0, seed=3))

    def test_tag_selective_matching(self):
        def program(ctx):
            if ctx.rank == 0:
                yield ctx.comm.send(1, 111, tag=1)
                yield ctx.comm.send(1, 222, tag=2)
            else:
                status_b = yield ctx.comm.recv(source=0, tag=2)
                status_a = yield ctx.comm.recv(source=0, tag=1)
                assert status_b.nbytes == 222
                assert status_a.nbytes == 111

        run(program)

    def test_self_send_rejected(self):
        def program(ctx):
            yield ctx.comm.compute(0.0)
            if ctx.rank == 0:
                from repro.mpi.ops import SendOp

                yield SendOp(dest=0, nbytes=10)

        with pytest.raises(ValueError):
            run(program, nprocs=1)


class TestBufferAccounting:
    def test_default_preallocates_all_peers(self):
        def program(ctx):
            yield ctx.comm.compute(0.0)

        result = run(program, nprocs=5)
        for stats in result.buffer_stats:
            assert stats.peers_with_buffer == 4
            assert stats.preallocated_bytes == 4 * MachineConfig().eager_buffer_bytes

    def test_preallocation_disabled_by_machine_config(self):
        machine = MachineConfig(preallocate_all_peers=False)

        def program(ctx):
            yield ctx.comm.compute(0.0)

        result = run(program, nprocs=5, machine=machine)
        for stats in result.buffer_stats:
            assert stats.peers_with_buffer == 0


class TestRuntimeStats:
    def test_latency_accumulator(self):
        acc = LatencyAccumulator()
        assert acc.mean == 0.0
        acc.add(1.0)
        acc.add(3.0)
        assert acc.mean == pytest.approx(2.0)
        assert acc.maximum == 3.0
        assert acc.count == 2

    def test_record_send_categories(self):
        stats = RuntimeStats()
        stats.record_send(10, "p2p", "eager", forced=False, bypass=False)
        stats.record_send(20, "collective", "rendezvous", forced=True, bypass=False)
        stats.record_send(30, "p2p", "eager", forced=False, bypass=True)
        assert stats.messages_sent == 3
        assert stats.bytes_sent == 60
        assert stats.p2p_messages == 2
        assert stats.collective_messages == 1
        assert stats.forced_rendezvous == 1
        assert stats.eager_bypass_large == 1

    def test_summary_keys(self):
        summary = RuntimeStats(nprocs=4).summary()
        assert summary["nprocs"] == 4
        assert "mean_eager_latency" in summary
        assert "unexpected_heap_stores" in summary

    def test_delivery_counters(self):
        stats = RuntimeStats()
        stats.record_delivery(expected=True)
        stats.record_delivery(expected=False, storage="heap")
        stats.record_delivery(expected=False, storage="buffer")
        assert stats.expected_deliveries == 1
        assert stats.unexpected_deliveries == 2
        assert stats.unexpected_heap_stores == 1


class TestConservation:
    def test_sent_equals_received_across_traces(self):
        def program(ctx):
            comm = ctx.comm
            for _ in range(5):
                yield from comm.alltoall(128)
                yield from comm.allreduce(16)

        result = run(program, nprocs=4, network=NetworkConfig(seed=5))
        total_logical = sum(len(result.trace_for(r).logical) for r in range(4))
        total_physical = sum(len(result.trace_for(r).physical) for r in range(4))
        assert total_logical == result.stats.messages_sent
        assert total_physical == result.stats.messages_sent

    def test_no_unmatched_receives(self):
        def program(ctx):
            yield from ctx.comm.alltoall(64)

        result = run(program, nprocs=3)
        for rank in range(3):
            assert result.tracer.unmatched_receives(rank) == 0


class TestRequestFreelist:
    """Blocking-op request handles are recycled through the transport pool."""

    def test_blocking_ops_populate_the_pool(self):
        def program(ctx):
            other = 1 - ctx.rank
            for i in range(10):
                if ctx.rank == 0:
                    yield ctx.comm.send(other, 64, tag=i)
                else:
                    yield ctx.comm.recv(source=other, tag=i)

        sim = Simulator(nprocs=2, network=NetworkConfig.noiseless(seed=1), seed=1)
        sim.run([program])
        # 10 blocking sends + 10 blocking receives were executed; their
        # handles were engine-internal and must have been recycled.
        assert len(sim.transport._request_pool) > 0

    def test_reused_requests_get_fresh_ids(self):
        from repro.mpi.constants import KIND_P2P
        from repro.mpi.request import Request
        from repro.runtime.transport import Transport
        from repro.sim.machine import MachineConfig
        from repro.sim.network import NetworkModel

        transport = Transport(
            nprocs=2,
            machine=MachineConfig(),
            network=NetworkModel(NetworkConfig.noiseless(seed=1)),
        )
        done = Request("send", 0)
        done._complete(1.0)
        old_id = done.req_id
        transport.release_request(done)
        request = transport.post_recv_values(1, 0, 0, KIND_P2P, 0.0)
        assert request is done  # the pooled object was handed out again
        assert request.op_kind == "recv"
        assert request.rank == 1
        assert not request.completed
        assert request.status is None
        assert request.req_id > old_id  # fresh identity for per-request keys

    def test_nonblocking_requests_are_never_recycled(self):
        held = []

        def program(ctx):
            other = 1 - ctx.rank
            if ctx.rank == 0:
                req = yield ctx.comm.isend(other, 64)
            else:
                req = yield ctx.comm.irecv(source=other)
            yield ctx.comm.wait(req)
            held.append(req)

        sim = Simulator(nprocs=2, network=NetworkConfig.noiseless(seed=1), seed=1)
        sim.run([program])
        # Program-held handles keep their completed state forever: they were
        # not reinitialised by any pool reuse during the run.
        assert all(req.completed for req in held)
        assert len({id(req) for req in held}) == 2
        assert all(req not in sim.transport._request_pool for req in held)


class TestSendRefusals:
    """The transport checks a send once, at posting, on both send paths."""

    REFUSALS = [
        pytest.param(1, -1, "message size must be non-negative, got -1", id="negative-size"),
        pytest.param(2, 8, r"destination rank 2 out of range \[0, 2\)", id="destination"),
        pytest.param(0, 8, "self-sends are not supported", id="self-send"),
    ]

    @staticmethod
    def _transport():
        from repro.runtime.transport import Transport
        from repro.sim.network import NetworkModel

        # Noiseless: post_send_burst takes its own pass, not the per-message loop.
        network = NetworkModel(NetworkConfig.noiseless(seed=1))
        assert network.deterministic
        return Transport(nprocs=2, machine=MachineConfig(), network=network)

    @pytest.mark.parametrize("dst,nbytes,refusal", REFUSALS)
    def test_post_send_values(self, dst, nbytes, refusal):
        transport = self._transport()
        with pytest.raises(ValueError, match=refusal):
            transport.post_send_values(0, dst, nbytes, 0, "p2p", 0.0)
        assert transport.stats.messages_sent == 0

    @pytest.mark.parametrize("dst,nbytes,refusal", REFUSALS)
    def test_post_send_burst(self, dst, nbytes, refusal):
        transport = self._transport()
        with pytest.raises(ValueError, match=refusal):
            transport.post_send_burst([0], [dst], [nbytes], [0], ["p2p"], [0.0])
        assert transport.stats.messages_sent == 0
