"""Tests for the Chrome trace-event exporter."""

import json

from repro.network.model import UniformCostNetwork, ZeroCostNetwork
from repro.obs.chrome_trace import (
    NETWORK_TID,
    chrome_trace_events,
    telemetry_trace_events,
    write_chrome_trace,
    write_telemetry_trace,
)
from repro.obs.telemetry import ROOT_SPAN, SweepTimeline
from repro.sim.engine import Engine
from repro.sim.events import Compute, Log, Recv, Send
from repro.sim.trace import Tracer


def traced_run():
    tracer = Tracer()
    engine = Engine(2, UniformCostNetwork(0.01), [1e6] * 2, tracer=tracer)

    def program(rank):
        if rank == 0:
            yield Compute(flops=1e3)
            yield Send(1, 64.0, tag=1)
            yield Log("checkpoint")
        else:
            yield Recv(src=0, tag=1)

    engine.run(program)
    return tracer


class TestEventShape:
    def test_every_event_has_required_fields(self):
        events = chrome_trace_events(traced_run())
        assert events
        for ev in events:
            for key in ("ph", "ts", "dur", "pid", "tid"):
                assert key in ev, f"missing {key} in {ev}"

    def test_duration_events_for_ops(self):
        events = chrome_trace_events(traced_run())
        xs = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in xs} == {"compute", "send", "recv"}
        send = next(e for e in xs if e["name"] == "send")
        assert send["dur"] > 0
        assert send["args"]["detail"].startswith("dst=1")

    def test_log_becomes_instant_event(self):
        events = chrome_trace_events(traced_run())
        instants = [e for e in events if e["ph"] == "i"]
        assert any(e["name"] == "checkpoint" for e in instants)

    def test_tid_is_rank_and_single_run_pid(self):
        events = chrome_trace_events(traced_run())
        xs = [e for e in events if e["ph"] == "X"]
        assert {e["pid"] for e in xs} == {1}
        assert {e["tid"] for e in xs} == {0, 1}

    def test_timestamps_scaled_to_microseconds(self):
        tracer = traced_run()
        events = chrome_trace_events(tracer)
        compute = next(e for e in events if e["name"] == "compute")
        rec = tracer.by_kind("compute")[0]
        assert compute["ts"] == rec.start * 1e6
        assert compute["dur"] == (rec.end - rec.start) * 1e6

    def test_metadata_names_processes_and_threads(self):
        events = chrome_trace_events([("my run", traced_run())])
        metas = [e for e in events if e["ph"] == "M"]
        assert any(e["args"]["name"] == "my run" for e in metas)
        assert any(e["args"]["name"] == "rank 1" for e in metas)


class TestNetworkTrack:
    def test_negative_rank_records_get_network_pseudo_thread(self):
        # Network-level fault records (rank -1, e.g. link.degraded) render
        # on a dedicated "network" track, not on rank 0's timeline.
        tracer = traced_run()
        tracer.append((-1, "fault", 0.2, 0.2, "link.degraded factor=0.5"))
        events = chrome_trace_events(tracer)
        net = [e for e in events if e["tid"] == NETWORK_TID]
        assert any(e.get("cat") == "fault" and e["ph"] == "i" for e in net)
        metas = [e for e in net if e["ph"] == "M"]
        assert any(e["args"]["name"] == "network" for e in metas)
        assert not [
            e for e in events if e.get("cat") == "fault" and e["tid"] == 0
        ]


class TestMultiRun:
    def test_each_run_gets_its_own_pid(self):
        events = chrome_trace_events(
            [("a", traced_run()), ("b", traced_run())]
        )
        assert {e["pid"] for e in events} == {1, 2}

    def test_dropped_records_flagged(self):
        tracer = Tracer(limit=1)
        engine = Engine(1, ZeroCostNetwork(), [1e6], tracer=tracer)

        def program(rank):
            yield Compute(seconds=0.1)
            yield Compute(seconds=0.1)

        engine.run(program)
        events = chrome_trace_events(tracer)
        assert any("dropped" in e["name"] for e in events)


class TestWrite:
    def test_writes_bare_json_array(self, tmp_path):
        path = tmp_path / "deep" / "trace.json"
        count = write_chrome_trace(path, traced_run())
        data = json.loads(path.read_text())
        assert isinstance(data, list)
        assert len(data) == count > 0


def sweep_timeline() -> SweepTimeline:
    """Parent + two workers with hand-placed wall-clock spans."""
    tl = SweepTimeline(jobs=2)
    tl.parent.add(ROOT_SPAN, 100.0, 110.0)
    tl.parent.add("spawn", 100.0, 101.0)
    tl.add_worker_spans([
        {"name": "engine_run", "start": 101.0, "end": 109.0, "pid": 51,
         "worker": "worker-51", "meta": {"point": 0}},
        {"name": "engine_run", "start": 101.0, "end": 108.0, "pid": 52,
         "worker": "worker-52"},
    ])
    return tl


class TestTelemetryExport:
    def test_one_process_per_worker_with_metadata(self):
        events = telemetry_trace_events(sweep_timeline())
        names = {
            e["pid"]: e["args"]["name"] for e in events
            if e["name"] == "process_name"
        }
        assert sorted(names.values()) == [
            "parent", "worker-51", "worker-52",
        ]
        assert {e["name"] for e in events if e["ph"] == "M"} == {
            "process_name", "process_sort_index", "thread_name",
        }

    def test_parent_track_sorts_first(self):
        events = telemetry_trace_events(sweep_timeline())
        by_pid = {
            e["pid"]: e["args"]["sort_index"] for e in events
            if e["name"] == "process_sort_index"
        }
        parent_pid = next(
            e["pid"] for e in events
            if e["name"] == "process_name" and e["args"]["name"] == "parent"
        )
        assert by_pid[parent_pid] == 0
        assert all(idx > 0 for pid, idx in by_pid.items()
                   if pid != parent_pid)

    def test_spans_shifted_to_origin_and_scaled(self):
        events = telemetry_trace_events(sweep_timeline())
        spans = [e for e in events if e["ph"] == "X"]
        assert min(e["ts"] for e in spans) == 0.0
        root = next(e for e in spans if e["name"] == ROOT_SPAN)
        assert root["dur"] == 10.0 * 1e6
        assert all(e["cat"] == "sweep" for e in spans)

    def test_meta_becomes_args(self):
        events = telemetry_trace_events(sweep_timeline())
        run51 = next(
            e for e in events
            if e["name"] == "engine_run" and e["pid"] == 51
        )
        assert run51["args"] == {"point": 0}

    def test_accepts_plain_span_list_and_empty(self):
        tl = sweep_timeline()
        assert telemetry_trace_events(tl.all_spans())
        assert telemetry_trace_events(SweepTimeline()) == []

    def test_write_round_trips(self, tmp_path):
        path = tmp_path / "sweep" / "timeline.json"
        count = write_telemetry_trace(path, sweep_timeline())
        data = json.loads(path.read_text())
        assert len(data) == count > 0
