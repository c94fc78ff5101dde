"""Tests for the metrics registry and the post-run metrics of a traced run."""

import json

import pytest

from repro.network.model import UniformCostNetwork, ZeroCostNetwork
from repro.obs.metrics import (
    BYTES_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    run_metrics,
)
from repro.sim.engine import Engine
from repro.sim.events import Compute, Log, Multicast, Recv, Send
from repro.sim.trace import Tracer


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_gauge_overwrites(self):
        g = Gauge()
        g.set(4.0)
        g.set(2.0)
        assert g.value == 2.0

    def test_histogram_buckets(self):
        h = Histogram(boundaries=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 100.0):
            h.observe(v)
        # 0.5 and 1.0 land at/below the first edge, 5.0 in the second
        # bucket, 100.0 in the overflow bucket.
        assert h.counts == [2, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(106.5)
        assert h.mean == pytest.approx(106.5 / 4)

    def test_histogram_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Histogram(boundaries=(2.0, 1.0))

    def test_histogram_to_dict_roundtrips_json(self):
        h = Histogram(boundaries=(1.0,))
        h.observe(0.5)
        assert json.loads(json.dumps(h.to_dict()))["count"] == 1

    def test_histogram_empty(self):
        h = Histogram(boundaries=(1.0, 10.0))
        assert h.count == 0
        assert h.sum == 0.0
        assert h.mean == 0.0  # no division by zero
        assert h.counts == [0, 0, 0]
        assert h.to_dict()["counts"] == [0, 0, 0]

    def test_histogram_single_sample(self):
        h = Histogram(boundaries=(1.0, 10.0))
        h.observe(5.0)
        assert h.count == 1
        assert h.mean == pytest.approx(5.0)
        assert h.counts == [0, 1, 0]

    def test_histogram_all_identical_samples(self):
        h = Histogram(boundaries=(1.0, 10.0))
        for _ in range(100):
            h.observe(2.5)
        # Every observation in one bucket; mean degenerates to the value.
        assert h.counts == [0, 100, 0]
        assert h.mean == pytest.approx(2.5)
        assert h.sum == pytest.approx(250.0)

    def test_histogram_boundary_value_lands_in_lower_bucket(self):
        h = Histogram(boundaries=(1.0, 10.0))
        h.observe(1.0)
        h.observe(10.0)
        assert h.counts == [1, 1, 0]

    def test_histogram_overflow_only(self):
        h = Histogram(boundaries=(1.0,))
        h.observe(100.0)
        assert h.counts == [0, 1]
        assert h.mean == pytest.approx(100.0)

    def test_histogram_positive_infinity_is_overflow(self):
        h = Histogram(boundaries=(1.0, 10.0))
        h.observe(5.0)
        h.observe(float("inf"))
        # +inf is a real "past the last edge" observation: counted, in
        # the overflow bucket, but excluded from sum so mean stays finite.
        assert h.counts == [0, 1, 1]
        assert h.count == 2
        assert h.sum == pytest.approx(5.0)
        assert h.mean == pytest.approx(5.0)
        assert h.invalid == 0

    def test_histogram_nan_and_negative_infinity_are_invalid(self):
        h = Histogram(boundaries=(1.0,))
        h.observe(float("nan"))
        h.observe(float("-inf"))
        h.observe(0.5)
        # No usable magnitude: not counted, not bucketed, just tallied.
        assert h.invalid == 2
        assert h.count == 1
        assert h.counts == [1, 0]
        assert h.mean == pytest.approx(0.5)

    def test_histogram_infinity_only_mean_is_zero(self):
        h = Histogram(boundaries=(1.0,))
        h.observe(float("inf"))
        assert h.count == 1
        assert h.mean == 0.0  # no finite mass to average

    def test_histogram_invalid_in_to_dict(self):
        h = Histogram(boundaries=(1.0,))
        h.observe(float("nan"))
        doc = json.loads(json.dumps(h.to_dict()))
        assert doc["invalid"] == 1
        assert doc["count"] == 0


class TestRegistry:
    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("x", rank=0) is reg.counter("x", rank=0)
        assert reg.counter("x", rank=0) is not reg.counter("x", rank=1)

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a=1, b=2) is reg.counter("x", b=2, a=1)

    def test_value_lookup(self):
        reg = MetricsRegistry()
        reg.counter("hits", rank=3).inc(7)
        assert reg.value("hits", rank=3) == 7
        assert reg.value("hits", rank=4) == 0

    def test_to_dict_groups_by_type(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(1)
        reg.histogram("h").observe(0.1)
        doc = reg.to_dict()
        assert {e["name"] for e in doc["counters"]} == {"c"}
        assert {e["name"] for e in doc["gauges"]} == {"g"}
        assert doc["histograms"][0]["count"] == 1

    def test_iter_yields_all_instruments(self):
        reg = MetricsRegistry()
        reg.counter("c", rank=1).inc()
        reg.gauge("g").set(2)
        names = {name for name, _, _ in reg}
        assert names == {"c", "g"}


class TestEngineIntegration:
    def run_program(self, program, nranks=2, network=None):
        tracer = Tracer()
        net = network if network is not None else UniformCostNetwork(0.01)
        engine = Engine(nranks, net, [1e6] * nranks, tracer=tracer)
        result = engine.run(program)
        return run_metrics(tracer, result), result

    def test_ops_counted_per_rank_and_kind(self):
        def program(rank):
            if rank == 0:
                yield Compute(flops=1e3)
                yield Send(1, 16.0, tag=1)
            else:
                yield Recv(src=0, tag=1)

        reg, _ = self.run_program(program)
        assert reg.value("sim_ops_total", rank=0, kind="compute") == 1
        assert reg.value("sim_ops_total", rank=0, kind="send") == 1
        assert reg.value("sim_ops_total", rank=1, kind="recv") == 1
        assert reg.value("sim_bytes_total", rank=0, kind="send") == 16.0
        assert reg.value("sim_bytes_total", rank=1, kind="recv") == 16.0
        assert reg.value("sim_flops_total", rank=0) == 1e3

    def test_multicast_and_log_recorded(self):
        def program(rank):
            if rank == 0:
                yield Log("hello")
                yield Multicast((1, 2), 8.0, tag=2)
            else:
                yield Recv(src=0, tag=2)

        reg, _ = self.run_program(program, nranks=3)
        assert reg.value("sim_ops_total", rank=0, kind="multicast") == 1
        assert reg.value("sim_ops_total", rank=0, kind="log") == 1

    def test_message_bytes_histogram_uses_byte_buckets(self):
        def program(rank):
            if rank == 0:
                yield Send(1, 100.0, tag=1)
            else:
                yield Recv(src=0, tag=1)

        reg, _ = self.run_program(program)
        hist = reg.histogram("sim_message_bytes", kind="send")
        assert hist.boundaries == BYTES_BUCKETS
        assert hist.count == 1

    def test_engine_self_profile_gauges(self):
        def program(rank):
            for _ in range(5):
                yield Compute(seconds=0.01)

        reg, result = self.run_program(program, nranks=1,
                                       network=ZeroCostNetwork())
        assert reg.value("engine_events") == result.events == 5
        assert reg.value("engine_heap_pushes") == result.heap_pushes
        assert reg.value("engine_makespan_seconds") == pytest.approx(0.05)
        assert reg.value("engine_wall_seconds") == result.wall_seconds > 0
        assert reg.value("engine_events_per_second") == pytest.approx(
            result.events_per_second
        )
        assert 0 <= reg.value("engine_stale_pop_ratio") <= 1

    def test_op_durations_observed(self):
        def program(rank):
            yield Compute(seconds=0.5)

        reg, _ = self.run_program(program, nranks=1,
                                  network=ZeroCostNetwork())
        hist = reg.histogram("sim_op_seconds", rank=0, kind="compute")
        assert hist.count == 1
        assert hist.sum == pytest.approx(0.5)

    def test_fault_annotations_are_not_counted(self):
        def program(rank):
            yield Compute(seconds=0.5)

        tracer = Tracer()
        result = Engine(1, ZeroCostNetwork(), [1e6], tracer=tracer).run(
            program
        )
        tracer.append((0, "fault", 0.1, 0.1, "slowdown severity=0.5"))
        reg = run_metrics(tracer, result)
        assert reg.value("sim_ops_total", rank=0, kind="compute") == 1
        assert reg.value("sim_ops_total", rank=0, kind="fault") == 0

    def test_records_past_the_tracer_limit_are_not_counted(self):
        def program(rank):
            for _ in range(5):
                yield Compute(seconds=0.01)

        tracer = Tracer(limit=2)
        result = Engine(1, ZeroCostNetwork(), [1e6], tracer=tracer).run(
            program
        )
        reg = run_metrics(tracer, result)
        assert reg.value("sim_ops_total", rank=0, kind="compute") == 2
        assert tracer.dropped == 3
        assert reg.value("engine_events") == 5
