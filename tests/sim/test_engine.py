"""Unit tests for the discrete-event engine."""

import pytest

from repro.network.model import UniformCostNetwork, ZeroCostNetwork
from repro.sim.engine import Engine
from repro.sim.errors import (
    DeadlockError,
    EventLimitExceeded,
    InvalidOperationError,
    ProtocolError,
)
from repro.sim.events import Compute, Log, Now, Recv, Send
from repro.sim.trace import Tracer


def make_engine(nranks=2, network=None, speeds=None, **kwargs):
    return Engine(
        nranks,
        network if network is not None else ZeroCostNetwork(),
        speeds if speeds is not None else [1e6] * nranks,
        **kwargs,
    )


class TestConstruction:
    def test_rejects_zero_ranks(self):
        with pytest.raises(InvalidOperationError):
            make_engine(0, speeds=[])

    def test_rejects_speed_count_mismatch(self):
        with pytest.raises(InvalidOperationError):
            Engine(2, ZeroCostNetwork(), [1e6])

    def test_rejects_non_positive_speed(self):
        with pytest.raises(InvalidOperationError):
            Engine(1, ZeroCostNetwork(), [0.0])


class TestCompute:
    def test_flops_convert_through_speed(self):
        engine = make_engine(1, speeds=[2e6])

        def program(rank):
            yield Compute(flops=1e6)

        result = engine.run(program)
        assert result.makespan == pytest.approx(0.5)
        assert result.stats[0].flops == 1e6

    def test_seconds_are_literal(self):
        engine = make_engine(1)

        def program(rank):
            yield Compute(seconds=0.25)
            yield Compute(seconds=0.25)

        result = engine.run(program)
        assert result.makespan == pytest.approx(0.5)
        assert result.stats[0].compute_time == pytest.approx(0.5)

    def test_duration_override_charges_seconds_credits_flops(self):
        # Compute(flops=f, seconds=s): the clock advances by s (not
        # f/speed) while the f flops still land in the rank's stats.
        engine = make_engine(1, speeds=[1e6])

        def program(rank):
            yield Compute(flops=1e6, seconds=2.0)

        result = engine.run(program)
        assert result.makespan == pytest.approx(2.0)
        assert result.stats[0].flops == 1e6
        assert result.stats[0].compute_time == pytest.approx(2.0)

    def test_different_speeds_per_rank(self):
        engine = make_engine(2, speeds=[1e6, 4e6])

        def program(rank):
            yield Compute(flops=4e6)

        result = engine.run(program)
        assert result.finish_times[0] == pytest.approx(4.0)
        assert result.finish_times[1] == pytest.approx(1.0)


class TestMessaging:
    def test_send_recv_payload(self):
        engine = make_engine(2)

        def program(rank):
            if rank == 0:
                yield Send(1, 8.0, tag=5, payload={"v": 42})
            else:
                msg = yield Recv(src=0, tag=5)
                assert msg.payload == {"v": 42}
                return msg.payload["v"]

        result = engine.run(program)
        assert result.return_values[1] == 42

    def test_recv_waits_for_arrival(self):
        engine = make_engine(2, network=UniformCostNetwork(0.1))

        def program(rank):
            if rank == 0:
                yield Compute(seconds=1.0)
                yield Send(1, 8.0)
            else:
                yield Recv(src=0)

        result = engine.run(program)
        # Receiver blocked from t=0 until the message arrives at 1.1.
        assert result.finish_times[1] == pytest.approx(1.1)
        assert result.stats[1].recv_wait_time == pytest.approx(1.1)

    def test_message_already_waiting_completes_at_arrival(self):
        engine = make_engine(2, network=UniformCostNetwork(0.1))

        def program(rank):
            if rank == 0:
                yield Send(1, 8.0)
            else:
                yield Compute(seconds=5.0)
                yield Recv(src=0)

        result = engine.run(program)
        assert result.finish_times[1] == pytest.approx(5.0)
        assert result.stats[1].recv_wait_time == pytest.approx(0.0)

    def test_fifo_between_same_pair_and_tag(self):
        engine = make_engine(2)

        def program(rank):
            if rank == 0:
                for i in range(5):
                    yield Send(1, 8.0, tag=1, payload=i)
            else:
                seen = []
                for _ in range(5):
                    msg = yield Recv(src=0, tag=1)
                    seen.append(msg.payload)
                return seen

        result = engine.run(program)
        assert result.return_values[1] == [0, 1, 2, 3, 4]

    def test_wildcard_receive_prefers_earliest_arrival(self):
        engine = make_engine(3, network=UniformCostNetwork(0.1))

        def program(rank):
            if rank == 0:
                received = []
                yield Compute(seconds=1.0)
                for _ in range(2):
                    msg = yield Recv()
                    received.append(msg.src)
                return received
            if rank == 1:
                yield Compute(seconds=0.5)
                yield Send(0, 8.0, payload="late")
            else:
                yield Send(0, 8.0, payload="early")

        result = engine.run(program)
        assert result.return_values[0] == [2, 1]

    def test_tag_selective_receive(self):
        engine = make_engine(2)

        def program(rank):
            if rank == 0:
                yield Send(1, 8.0, tag=1, payload="one")
                yield Send(1, 8.0, tag=2, payload="two")
            else:
                msg2 = yield Recv(src=0, tag=2)
                msg1 = yield Recv(src=0, tag=1)
                return (msg2.payload, msg1.payload)

        result = engine.run(program)
        assert result.return_values[1] == ("two", "one")

    def test_self_send(self):
        engine = make_engine(1)

        def program(rank):
            yield Send(0, 8.0, payload="me")
            msg = yield Recv(src=0)
            return msg.payload

        assert engine.run(program).return_values[0] == "me"

    def test_send_to_invalid_rank_raises(self):
        engine = make_engine(2)

        def program(rank):
            yield Send(5, 8.0)

        with pytest.raises(InvalidOperationError):
            engine.run(program)

    def test_undelivered_messages_counted(self):
        engine = make_engine(2)

        def program(rank):
            if rank == 0:
                yield Send(1, 8.0)
                yield Send(1, 8.0)
            else:
                yield Recv(src=0)

        result = engine.run(program)
        assert result.undelivered_messages == 1


class TestDeadlock:
    def test_mutual_recv_deadlocks(self):
        engine = make_engine(2)

        def program(rank):
            yield Recv(src=1 - rank)

        with pytest.raises(DeadlockError) as err:
            engine.run(program)
        assert set(err.value.blocked) == {0, 1}

    def test_partial_deadlock_detected(self):
        engine = make_engine(3)

        def program(rank):
            if rank == 0:
                yield Compute(seconds=1.0)
            else:
                yield Recv(src=0, tag=9)

        with pytest.raises(DeadlockError):
            engine.run(program)


class TestMiscOps:
    def test_now_returns_local_time(self):
        engine = make_engine(1)

        def program(rank):
            t0 = yield Now()
            yield Compute(seconds=0.5)
            t1 = yield Now()
            return (t0, t1)

        t0, t1 = engine.run(program).return_values[0]
        assert t0 == 0.0
        assert t1 == pytest.approx(0.5)

    def test_log_records_to_tracer(self):
        tracer = Tracer()
        engine = make_engine(1, tracer=tracer)

        def program(rank):
            yield Log("hello")

        engine.run(program)
        logs = tracer.by_kind("log")
        assert len(logs) == 1 and logs[0].detail == "hello"

    def test_unknown_yield_raises(self):
        engine = make_engine(1)

        def program(rank):
            yield "not an op"

        with pytest.raises(ProtocolError):
            engine.run(program)

    def test_event_limit(self):
        engine = make_engine(1, max_events=10)

        def program(rank):
            while True:
                yield Compute(seconds=0.0)

        with pytest.raises(EventLimitExceeded):
            engine.run(program)

    def test_explicit_generator_list(self):
        engine = make_engine(2)

        def worker(value):
            yield Compute(seconds=0.1)
            return value

        result = engine.run([worker(10), worker(20)])
        assert result.return_values == [10, 20]

    def test_generator_count_mismatch(self):
        engine = make_engine(2)

        def worker():
            yield Compute(seconds=0.1)

        with pytest.raises(InvalidOperationError):
            engine.run([worker()])


class TestRejection:
    """Dispatch is by exact type over the six primitives."""

    def test_subclass_of_primitive_is_rejected(self):
        class FancyCompute(Compute):
            pass

        def program(rank):
            yield FancyCompute(flops=1.0)

        with pytest.raises(ProtocolError, match="subclass of a primitive"):
            make_engine(1).run(program)

    def test_unknown_object_is_rejected(self):
        def program(rank):
            yield object()

        with pytest.raises(ProtocolError, match="unsupported object"):
            make_engine(1).run(program)


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        def program(rank):
            if rank == 0:
                for i in range(10):
                    yield Send(1, 100.0 * i, tag=i)
            else:
                total = 0.0
                for i in range(10):
                    msg = yield Recv(src=0, tag=i)
                    total += msg.nbytes
                    yield Compute(flops=1e4)
                return total

        results = [
            make_engine(2, network=UniformCostNetwork(0.01)).run(program)
            for _ in range(3)
        ]
        assert len({r.makespan for r in results}) == 1
        assert len({r.return_values[1] for r in results}) == 1

    def test_stats_accounting_consistency(self):
        engine = make_engine(2, network=UniformCostNetwork(0.05))

        def program(rank):
            if rank == 0:
                yield Compute(seconds=0.2)
                yield Send(1, 64.0)
            else:
                yield Recv(src=0)

        result = engine.run(program)
        s0, s1 = result.stats
        assert s0.messages_sent == 1 and s0.bytes_sent == 64.0
        assert s1.messages_received == 1 and s1.bytes_received == 64.0
        assert result.total_bytes == 64.0
        assert s0.comm_time > 0
        assert s0.busy_time == pytest.approx(s0.compute_time + s0.comm_time)


class TestHeapAccounting:
    def test_stale_pop_ratio_denominator_is_pops_not_pushes(self):
        """Regression: the ratio documented as "fraction of heap pops"
        was computed against heap_pushes, understating scheduler waste
        whenever entries were pushed but superseded before popping."""
        from repro.sim.engine import RunResult

        result = RunResult(
            finish_times=[1.0], stats=[], events=10,
            heap_pushes=10, heap_pops=4, stale_pops=2,
        )
        assert result.stale_pop_ratio == 2 / 4

    def test_zero_pops_gives_zero_ratio(self):
        from repro.sim.engine import RunResult

        result = RunResult(finish_times=[], stats=[], events=0)
        assert result.stale_pop_ratio == 0.0

    def test_run_reports_consistent_heap_counters(self):
        def program(rank):
            if rank == 0:
                yield Send(dst=1, nbytes=8.0)
            else:
                yield Recv(src=0)

        result = make_engine(2).run(program)
        assert result.heap_pops > 0
        assert result.heap_pops <= result.heap_pushes
        assert result.stale_pops <= result.heap_pops
        assert result.stale_pop_ratio == (
            result.stale_pops / result.heap_pops
        )


class TestDirectResume:
    def test_time_tie_goes_to_queued_rank_not_direct_resume(self):
        """The run loop resumes the rank that just yielded at once only
        when it is *strictly* earliest: its fresh seq loses every time
        tie, so two ranks computing in lockstep alternate."""
        tracer = Tracer()

        def program(rank):
            for _ in range(3):
                yield Compute(seconds=1.0)

        result = make_engine(2, tracer=tracer).run(program)
        computes = tracer.by_kind("compute")
        assert [r.rank for r in computes] == [0, 1, 0, 1, 0, 1]
        assert [r.start for r in computes] == [0.0, 0.0, 1.0, 1.0, 2.0, 2.0]
        assert result.stale_pops == 0
