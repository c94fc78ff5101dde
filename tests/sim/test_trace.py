"""Unit tests for tracing and per-rank statistics."""

import pytest

from repro.network.model import UniformCostNetwork, ZeroCostNetwork
from repro.sim.engine import Engine
from repro.sim.events import Compute, Recv, Send
from repro.sim.trace import RankStats, Tracer


def test_rank_stats_derived_properties():
    stats = RankStats(rank=0, compute_time=1.0, send_time=0.25, recv_wait_time=0.75)
    assert stats.comm_time == pytest.approx(1.0)
    assert stats.busy_time == pytest.approx(2.0)


def test_tracer_records_all_event_kinds():
    tracer = Tracer()
    engine = Engine(2, UniformCostNetwork(0.01), [1e6] * 2, tracer=tracer)

    def program(rank):
        if rank == 0:
            yield Compute(flops=1e3)
            yield Send(1, 16.0, tag=4)
        else:
            yield Recv(src=0, tag=4)

    engine.run(program)
    kinds = {r.kind for r in tracer.records}
    assert kinds == {"compute", "send", "recv"}
    send = tracer.by_kind("send")[0]
    assert "dst=1" in send.detail and "tag=4" in send.detail
    assert send.end >= send.start


def test_tracer_for_rank_orders_events():
    tracer = Tracer()
    engine = Engine(1, ZeroCostNetwork(), [1e6], tracer=tracer)

    def program(rank):
        yield Compute(seconds=0.1)
        yield Compute(seconds=0.2)

    engine.run(program)
    records = tracer.for_rank(0)
    assert [r.kind for r in records] == ["compute", "compute"]
    assert records[0].end <= records[1].start


def test_tracer_limit_drops_excess():
    tracer = Tracer(limit=3)
    engine = Engine(1, ZeroCostNetwork(), [1e6], tracer=tracer)

    def program(rank):
        for _ in range(10):
            yield Compute(seconds=0.01)

    engine.run(program)
    assert len(tracer.records) == 3
    assert tracer.dropped == 7


def test_tracer_negative_limit_rejected():
    with pytest.raises(ValueError):
        Tracer(limit=-5)
    assert Tracer(limit=0).limit == 0  # zero stays valid: count drops only


def test_tracer_keeps_raw_records_and_builds_views_on_read():
    tracer = Tracer()
    tracer.append((0, "compute", 0.0, 1.0, 250.0))
    tracer.append((0, "send", 1.0, 1.5, 1, 7, 64.0))
    # The raw tuple keeps what the detail string does not: flops, nbytes.
    assert tracer.raw_records() == [
        (0, "compute", 0.0, 1.0, 250.0), (0, "send", 1.0, 1.5, 1, 7, 64.0),
    ]
    assert [r.detail for r in tracer.records] == ["", "dst=1 tag=7 nbytes=64"]
    tracer.append((1, "recv", 0.5, 1.5, 0, 7, 64.0))
    assert [r.kind for r in tracer.records] == ["compute", "send", "recv"]


def test_recv_trace_detail_includes_source():
    tracer = Tracer()
    engine = Engine(2, ZeroCostNetwork(), [1e6] * 2, tracer=tracer)

    def program(rank):
        if rank == 0:
            yield Send(1, 32.0, tag=2)
        else:
            yield Recv()

    engine.run(program)
    recv = tracer.by_kind("recv")[0]
    assert "src=0" in recv.detail and "nbytes=32" in recv.detail


def test_rank_stats_idle_and_utilization():
    stats = RankStats(rank=0, compute_time=1.0, send_time=0.25, recv_wait_time=0.75)
    assert stats.idle_time(4.0) == pytest.approx(2.0)
    assert stats.utilization(4.0) == pytest.approx(0.5)
    # Degenerate makespans.
    assert stats.idle_time(1.0) == 0.0
    assert stats.utilization(0.0) == 0.0


def test_tracer_kinds_lists_multicast():
    from repro.sim.events import Multicast

    tracer = Tracer()
    engine = Engine(3, UniformCostNetwork(0.01), [1e6] * 3, tracer=tracer)

    def program(rank):
        if rank == 0:
            yield Compute(flops=1e3)
            yield Multicast((1, 2), 8.0, tag=1)
        else:
            yield Recv(src=0, tag=1)

    engine.run(program)
    assert tracer.kinds() == ["compute", "multicast", "recv"]
    assert tracer.by_kind("multicast")[0].detail.startswith("dsts=2")


def test_tracer_limit_boundary_under_multicast_fanout():
    """Hitting the record limit mid-fan-out: stored vs dropped must account
    for every record the run would have produced."""
    from repro.sim.events import Multicast

    tracer = Tracer(limit=2)
    engine = Engine(4, UniformCostNetwork(0.01), [1e6] * 4, tracer=tracer)

    def program(rank):
        if rank == 0:
            yield Multicast((1, 2, 3), 8.0, tag=1)
        else:
            yield Recv(src=0, tag=1)

    engine.run(program)
    # 4 records total (1 multicast + 3 recv); limit keeps the first 2.
    assert len(tracer.records) == 2
    assert tracer.dropped == 2
    assert tracer.records[0].kind == "multicast"
    assert len(tracer.records) + tracer.dropped == 4
