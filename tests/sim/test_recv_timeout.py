"""Recv(timeout=): bounded blocking receives, and the undelivered warning."""

import pytest

from repro.network.model import UniformCostNetwork, ZeroCostNetwork
from repro.sim.engine import Engine
from repro.sim.events import Compute, Recv, Send
from repro.sim.trace import Tracer


class TestRecvTimeoutValidation:
    def test_nonpositive_timeout_rejected(self):
        from repro.sim.errors import InvalidOperationError

        for bad in (0.0, -1.0):
            with pytest.raises(InvalidOperationError):
                Recv(timeout=bad)

    def test_timeout_in_repr_and_eq(self):
        assert "timeout" in repr(Recv(timeout=2.0))
        assert Recv(timeout=2.0) == Recv(timeout=2.0)
        assert Recv(timeout=2.0) != Recv(timeout=3.0)
        assert Recv() == Recv()


class TestTimeoutSemantics:
    def test_expired_timeout_resumes_with_none(self):
        def lonely():
            msg = yield Recv(src=0, timeout=1.5)
            return msg

        def other():
            yield Compute(seconds=0.1)

        engine = Engine(2, ZeroCostNetwork(), [1e6, 1e6])
        result = engine.run([other(), lonely()])
        assert result.return_values[1] is None
        assert result.finish_times[1] == pytest.approx(1.5)
        assert result.stats[1].recv_wait_time == pytest.approx(1.5)

    def test_arrival_before_deadline_cancels_timeout(self):
        def sender():
            yield Compute(seconds=0.5)
            yield Send(dst=1, nbytes=8.0)

        def receiver():
            msg = yield Recv(src=0, timeout=10.0)
            return msg.nbytes

        engine = Engine(2, UniformCostNetwork(0.1), [1e6, 1e6])
        result = engine.run([sender(), receiver()])
        assert result.return_values[1] == 8.0
        assert result.finish_times[1] == pytest.approx(0.6)

    def test_message_arriving_exactly_never_lost_to_race(self):
        # Arrival at t=1.0 vs deadline at t=1.0: delivery wins because the
        # deposit happens when the sender's clock reaches 1.0, which the
        # smallest-clock order processes before the receiver's deadline pop.
        def sender():
            yield Compute(seconds=0.5)
            yield Send(dst=1, nbytes=8.0)

        def receiver():
            msg = yield Recv(src=0, timeout=1.0)
            return "got it" if msg is not None else "timed out"

        engine = Engine(2, UniformCostNetwork(0.5), [1e6, 1e6])
        result = engine.run([sender(), receiver()])
        assert result.return_values[1] == "got it"

    def test_program_continues_after_timeout(self):
        def receiver():
            first = yield Recv(src=0, timeout=0.5)
            assert first is None
            second = yield Recv(src=0, timeout=10.0)
            return second.nbytes

        def sender():
            yield Compute(seconds=1.0)
            yield Send(dst=1, nbytes=4.0)

        engine = Engine(2, ZeroCostNetwork(), [1e6, 1e6])
        result = engine.run([sender(), receiver()])
        assert result.return_values[1] == 4.0

    def test_timeout_recorded_in_trace(self):
        def lonely():
            yield Recv(src=0, timeout=1.0)

        def other():
            yield Compute(seconds=0.1)

        tracer = Tracer()
        engine = Engine(2, ZeroCostNetwork(), [1e6, 1e6], tracer=tracer)
        engine.run([other(), lonely()])
        kinds = [r.kind for r in tracer.records]
        assert "recv-timeout" in kinds
        rec = next(r for r in tracer.records if r.kind == "recv-timeout")
        assert rec.rank == 1
        assert (rec.start, rec.end) == (0.0, 1.0)

    def test_waiting_recv_not_completed_by_late_arrival(self):
        # The receive is already blocked (waiting path) when the send
        # happens; the message's arrival (t=10.5) lies past the deadline
        # (t=2.0), so the receive must resume with None at the deadline,
        # not with the message at its arrival.
        def sender():
            yield Compute(seconds=0.5)
            yield Send(dst=1, nbytes=8.0)

        def receiver():
            msg = yield Recv(src=0, timeout=2.0)
            return msg

        engine = Engine(2, UniformCostNetwork(10.0), [1e6, 1e6])
        result = engine.run([sender(), receiver()])
        assert result.return_values[1] is None
        assert result.finish_times[1] == pytest.approx(2.0)

    def test_mailbox_message_past_deadline_not_delivered(self):
        # The message is already in the mailbox (sent at t=0, arrival
        # t=10) when the timed receive is posted; it must not satisfy a
        # receive whose deadline (t=2.1) precedes the arrival.
        def sender():
            yield Send(dst=1, nbytes=8.0)

        def receiver():
            yield Compute(seconds=0.1)  # let the send happen first
            msg = yield Recv(src=0, timeout=2.0)
            return msg

        engine = Engine(2, UniformCostNetwork(10.0), [1e6, 1e6])
        result = engine.run([sender(), receiver()])
        assert result.return_values[1] is None
        assert result.finish_times[1] == pytest.approx(2.1)

    def test_late_message_stays_available_for_later_recv(self):
        # A message past one receive's deadline is not lost: it stays in
        # the mailbox and completes the next (untimed) receive.
        def sender():
            yield Send(dst=1, nbytes=8.0)

        def receiver():
            yield Compute(seconds=0.1)
            first = yield Recv(src=0, timeout=1.0)
            second = yield Recv(src=0)
            return (first, second.nbytes)

        engine = Engine(2, UniformCostNetwork(10.0), [1e6, 1e6])
        result = engine.run([sender(), receiver()])
        assert result.return_values[1] == (None, 8.0)
        assert result.finish_times[1] == pytest.approx(10.0)

    def test_mailbox_arrival_exactly_at_deadline_delivered(self):
        # Arrival t=1.0 equals the deadline (posted t=0.5, timeout 0.5):
        # boundary arrivals are delivered, matching the waiting-path race
        # semantics above.
        def sender():
            yield Send(dst=1, nbytes=8.0)

        def receiver():
            yield Compute(seconds=0.5)
            msg = yield Recv(src=0, timeout=0.5)
            return "got it" if msg is not None else "timed out"

        engine = Engine(2, UniformCostNetwork(1.0), [1e6, 1e6])
        result = engine.run([sender(), receiver()])
        assert result.return_values[1] == "got it"
        assert result.finish_times[1] == pytest.approx(1.0)

    def test_multicast_late_arrival_does_not_complete_timed_recv(self):
        # Same deadline rule on the multicast delivery path.
        from repro.sim.events import Multicast

        def sender():
            yield Compute(seconds=0.5)
            yield Multicast(dsts=(1,), nbytes=8.0)

        def receiver():
            msg = yield Recv(src=0, timeout=2.0)
            return msg

        engine = Engine(2, UniformCostNetwork(10.0), [1e6, 1e6])
        result = engine.run([sender(), receiver()])
        assert result.return_values[1] is None
        assert result.finish_times[1] == pytest.approx(2.0)

    def test_comm_recv_exposes_timeout(self):
        from repro.mpi.communicator import Comm, mpi_run

        def program(comm):
            if comm.rank == 0:
                return "idle"
            msg = yield from comm.recv(src=0, timeout=0.25)
            return msg

        result = mpi_run(2, ZeroCostNetwork(), [1e6, 1e6], program)
        assert result.return_values == ["idle", None]
        assert result.finish_times[1] == pytest.approx(0.25)


class TestUndeliveredCount:
    def test_unreceived_message_is_counted(self):
        # Rank 0 sends a message nobody ever receives.
        def sender():
            yield Send(dst=1, nbytes=8.0)

        def other():
            yield Compute(seconds=0.1)

        engine = Engine(2, ZeroCostNetwork(), [1e6, 1e6])
        result = engine.run([sender(), other()])
        assert result.undelivered_messages == 1

    def test_clean_run_counts_none(self):
        def sender():
            yield Send(dst=1, nbytes=8.0)

        def receiver():
            yield Recv(src=0)

        engine = Engine(2, ZeroCostNetwork(), [1e6, 1e6])
        result = engine.run([sender(), receiver()])
        assert result.undelivered_messages == 0
