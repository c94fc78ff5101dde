"""Flight recorder: ring semantics, watchdog checks, dump-on-error."""

from __future__ import annotations

import json

import pytest

from repro.network.model import ZeroCostNetwork
from repro.obs.chrome_trace import chrome_trace_events
from repro.sim.engine import Engine, RunResult
from repro.sim.errors import DeadlockError, EventLimitExceeded
from repro.sim.events import Compute, Log, Recv, Send
from repro.sim.flight import (
    DEFAULT_CAPACITY,
    FlightRecorder,
    WatchdogConfig,
    flight_dir,
)
from repro.sim.trace import RankStats, Tracer


def make_engine(nranks=2, flight=None, **kwargs):
    return Engine(
        nranks, ZeroCostNetwork(), [1e6] * nranks, flight=flight, **kwargs
    )


# -- ring semantics -----------------------------------------------------------

class TestRing:
    def test_wraparound_keeps_most_recent_oldest_first(self):
        flight = FlightRecorder(capacity=4, watchdog=None)
        for i in range(10):
            flight.append((0, "compute", float(i), float(i) + 0.5, None))
        assert len(flight) == 4
        starts = [rec[2] for rec in flight.raw_records()]
        assert starts == [6.0, 7.0, 8.0, 9.0]

    def test_capacity_one(self):
        flight = FlightRecorder(capacity=1, watchdog=None)
        flight.append((0, "compute", 0.0, 1.0, None))
        flight.append((1, "compute", 1.0, 2.0, None))
        assert flight.raw_records() == [(1, "compute", 1.0, 2.0, None)]

    def test_capacity_zero_records_nothing_but_dumps_reason(self, tmp_path):
        flight = FlightRecorder(capacity=0, out_dir=tmp_path, watchdog=None)
        flight.append((0, "compute", 0.0, 1.0, None))
        assert len(flight) == 0
        path = flight.dump_error(RuntimeError("boom"))
        doc = json.loads(path.read_text())
        assert doc["retained"] == 0
        assert doc["records"] == []
        assert doc["reason"]["error_type"] == "RuntimeError"

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=-1)

    def test_is_a_last_k_tracer(self):
        flight = FlightRecorder(capacity=2, watchdog=None)
        assert isinstance(flight, Tracer)
        flight.append((0, "compute", 0.0, 1.0, 250.0))
        flight.append((0, "send", 1.0, 1.5, 1, 7, 64.0))
        flight.append((1, "recv", 0.5, 1.5, 0, 7, 64.0))
        # The views match a first-K tracer's for the same records.
        tracer = Tracer()
        for rec in flight.raw_records():
            tracer.append(rec)
        assert flight.records == tracer.records
        assert [r.kind for r in flight.records] == ["send", "recv"]
        assert flight.dropped == 0

    def test_default_capacity(self):
        assert FlightRecorder().capacity == DEFAULT_CAPACITY

    def test_clear(self):
        flight = FlightRecorder(capacity=4, watchdog=None)
        flight.append((0, "compute", 0.0, 1.0, None))
        flight.clear()
        assert len(flight) == 0


# -- dump contents ------------------------------------------------------------

class TestDump:
    def test_envelope_shape_and_detail_rendering(self, tmp_path):
        flight = FlightRecorder(capacity=8, out_dir=tmp_path, watchdog=None)
        flight.append((0, "compute", 0.0, 1.0, 250.0))
        flight.append((0, "send", 1.0, 1.5, 1, 7, 64.0))
        flight.append((1, "recv", 0.5, 1.5, 0, 7, 64.0))
        flight.append((1, "log", 1.5, 1.5, "checkpoint"))
        path = flight.dump_error(
            DeadlockError({0: "Recv(src=1, tag=7)"}), nranks=2, events=4
        )
        assert path.parent == tmp_path
        assert flight.dumps == [path]
        doc = json.loads(path.read_text())
        assert doc["kind"] == "flight-dump"
        assert doc["version"] == 1
        assert doc["capacity"] == 8
        assert doc["retained"] == 4
        assert doc["engine"] == {"nranks": 2, "events": 4}
        assert doc["reason"]["trigger"] == "error"
        assert doc["reason"]["error_type"] == "DeadlockError"
        assert doc["reason"]["message"].startswith("simulation deadlock")
        details = [rec["detail"] for rec in doc["records"]]
        assert details == [
            "flops=250", "dst=1 tag=7 nbytes=64", "src=0 tag=7 nbytes=64",
            "checkpoint",
        ]
        # The envelope doubles as a Chrome trace: the retained records
        # through the one Chrome encoder, plus the instant event carrying
        # the reason.
        *events, marker = doc["traceEvents"]
        assert events == chrome_trace_events([("flight recorder", flight)])
        assert marker["name"] == "flight_dump"
        assert marker["args"] == doc["reason"]
        names = [e["name"] for e in events]
        assert names.count("compute") == 1 and names.count("send") == 1

    def test_sequential_dumps_get_distinct_paths(self, tmp_path):
        flight = FlightRecorder(capacity=2, out_dir=tmp_path, watchdog=None)
        a = flight.dump_error(RuntimeError("one"))
        b = flight.dump_error(RuntimeError("two"))
        assert a != b
        assert flight.dumps == [a, b]

    def test_default_dir_comes_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path / "env-flight"))
        assert flight_dir() == tmp_path / "env-flight"
        flight = FlightRecorder(capacity=2, watchdog=None)
        path = flight.dump_error(RuntimeError("boom"))
        assert path.parent == tmp_path / "env-flight"


# -- watchdog -----------------------------------------------------------------

def _stats(utilizations, makespan):
    out = []
    for rank, u in enumerate(utilizations):
        st = RankStats(rank)
        st.compute_time = u * makespan
        out.append(st)
    return out


def _result(utilizations, makespan):
    """A completed 1000-event run whose ranks reach the given
    utilizations over ``makespan``."""
    return RunResult(
        finish_times=[makespan] * len(utilizations),
        stats=_stats(utilizations, makespan),
        events=1000, heap_pops=1000, stale_pops=0,
    )


class TestWatchdog:
    def test_healthy_run_trips_nothing(self):
        flight = FlightRecorder(capacity=8)
        checks = flight.check(
            stats=_stats([0.9, 0.8], 10.0), makespan=10.0,
            events=1000, heap_pops=1000, stale_pops=10,
        )
        assert checks == []

    def test_utilization_collapse(self):
        flight = FlightRecorder(capacity=8)
        checks = flight.check(
            stats=_stats([0.9, 0.01], 10.0), makespan=10.0,
            events=1000, heap_pops=1000, stale_pops=0,
        )
        assert len(checks) == 1
        assert checks[0].startswith("utilization_collapse: rank 1")

    def test_min_events_guard_suppresses_judgement(self):
        flight = FlightRecorder(capacity=8)
        checks = flight.check(
            stats=_stats([0.9, 0.01], 10.0), makespan=10.0,
            events=100, heap_pops=100, stale_pops=99,
        )
        assert checks == []

    def test_stale_pop_spike(self):
        flight = FlightRecorder(capacity=8)
        checks = flight.check(
            stats=_stats([0.9, 0.8], 10.0), makespan=10.0,
            events=1000, heap_pops=1000, stale_pops=950,
        )
        assert len(checks) == 1
        assert checks[0].startswith("stale_pop_spike")

    def test_monotonicity_regression(self):
        flight = FlightRecorder(capacity=8)
        flight.append((0, "compute", 0.0, 1.0, None))
        flight.append((0, "compute", 0.5, 1.5, None))  # starts before prev end
        checks = flight.check(
            stats=[], makespan=0.0, events=0, heap_pops=0, stale_pops=0,
        )
        assert len(checks) == 1
        assert checks[0].startswith("monotonicity: rank 0")

    def test_run_complete_dumps_on_trip(self, tmp_path):
        flight = FlightRecorder(capacity=8, out_dir=tmp_path)
        path = flight.run_complete(_result([0.9, 0.01], 10.0))
        assert path is not None
        doc = json.loads(path.read_text())
        assert doc["reason"]["trigger"] == "watchdog"
        assert any(
            c.startswith("utilization_collapse")
            for c in doc["reason"]["checks"]
        )
        assert doc["engine"] == {
            "nranks": 2, "makespan": 10.0, "events": 1000,
            "heap_pops": 1000, "stale_pops": 0,
        }

    def test_run_complete_quiet_when_healthy(self, tmp_path):
        flight = FlightRecorder(capacity=8, out_dir=tmp_path)
        path = flight.run_complete(_result([0.9, 0.8], 10.0))
        assert path is None
        assert flight.dumps == []

    def test_disabled_watchdog(self):
        flight = FlightRecorder(capacity=8, watchdog=None)
        assert flight.check(
            stats=_stats([0.9, 0.0], 10.0), makespan=10.0,
            events=1000, heap_pops=1000, stale_pops=1000,
        ) == []


# -- engine integration -------------------------------------------------------

class TestEngineIntegration:
    def test_records_ride_the_fast_lane(self, tmp_path):
        flight = FlightRecorder(capacity=16, out_dir=tmp_path)

        def program(rank):
            if rank == 0:
                yield Compute(flops=1000)
                yield Send(dst=1, tag=1, nbytes=8)
                yield Log("done")
            else:
                yield Recv(src=0, tag=1)

        result = make_engine(2, flight=flight).run(program)
        kinds = [rec[1] for rec in flight.raw_records()]
        assert kinds.count("compute") == 1
        assert kinds.count("send") == 1
        assert kinds.count("recv") == 1
        assert kinds.count("log") == 1
        assert result.makespan > 0.0
        assert flight.dumps == []  # healthy run, tiny (< min_events)

    def test_deadlock_dumps_ring_then_reraises(self, tmp_path):
        flight = FlightRecorder(capacity=16, out_dir=tmp_path)

        def program(rank):
            yield Compute(flops=1000)
            yield Recv(src=1 - rank, tag=9)  # both sides wait forever

        with pytest.raises(DeadlockError):
            make_engine(2, flight=flight).run(program)
        assert len(flight.dumps) == 1
        doc = json.loads(flight.dumps[0].read_text())
        assert doc["reason"]["error_type"] == "DeadlockError"
        assert doc["engine"]["nranks"] == 2
        # The ring holds the compute records leading into the hang.
        assert {rec["kind"] for rec in doc["records"]} == {"compute"}

    def test_event_limit_dumps(self, tmp_path):
        flight = FlightRecorder(capacity=4, out_dir=tmp_path)

        def program(rank):
            for _ in range(100):
                yield Compute(flops=10)

        with pytest.raises(EventLimitExceeded):
            make_engine(1, flight=flight, max_events=20).run(program)
        doc = json.loads(flight.dumps[0].read_text())
        assert doc["reason"]["error_type"] == "EventLimitExceeded"
        assert doc["retained"] == 4  # ring stayed bounded while looping

    def test_fail_stop_watchdog_catches_collapsed_rank(self, tmp_path):
        # A rank that dies early (program ends, no error raised) leaves
        # a run that *completes* with one collapsed utilization -- the
        # watchdog's reason to exist.  >= min_events on the live rank
        # keeps the guard from suppressing the judgement.
        flight = FlightRecorder(
            capacity=32, out_dir=tmp_path,
            watchdog=WatchdogConfig(min_events=256),
        )

        def program(rank):
            if rank == 0:
                for _ in range(400):
                    yield Compute(flops=1000)
            # rank 1: finishes immediately at t=0 with zero busy time

        result = make_engine(2, flight=flight).run(program)
        assert result.makespan > 0.0
        assert len(flight.dumps) == 1
        doc = json.loads(flight.dumps[0].read_text())
        assert doc["reason"]["trigger"] == "watchdog"
        assert any(
            "utilization_collapse: rank 1" in c
            for c in doc["reason"]["checks"]
        )

    def test_attaching_flight_is_bit_identity_neutral(self):
        def program(rank):
            if rank == 0:
                yield Compute(flops=12345)
                yield Send(dst=1, tag=3, nbytes=64)
            else:
                yield Recv(src=0, tag=3)
                yield Compute(flops=999)

        bare = make_engine(2).run(program)
        flight = FlightRecorder(capacity=8)
        recorded = make_engine(2, flight=flight).run(program)
        assert bare.makespan == recorded.makespan
        assert bare.finish_times == recorded.finish_times
        assert bare.events == recorded.events
