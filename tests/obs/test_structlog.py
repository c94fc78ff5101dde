"""Tests for the structured JSONL event logger."""

import json

import pytest

from repro.machine import ge_configuration
from repro.obs.structlog import StructLogger, stderr_logger


class TestEmission:
    def test_event_envelope(self):
        log = StructLogger()
        record = log.event("hello", answer=42)
        assert record["event"] == "hello"
        assert record["level"] == "info"
        assert record["answer"] == 42
        assert "ts_utc" in record
        assert log.events == [record]

    def test_levels(self):
        log = StructLogger()
        log.info("a")
        log.warning("b")
        log.error("c")
        assert [e["level"] for e in log.events] == [
            "info", "warning", "error"
        ]

    def test_bound_fields_attach_to_every_event(self):
        log = StructLogger(run_id="r1")
        child = log.bind(app="ge", rank=3)
        child.event("op", phase="bcast")
        (record,) = log.events  # children share the parent's sink
        assert record["run_id"] == "r1"
        assert record["app"] == "ge"
        assert record["rank"] == 3
        assert record["phase"] == "bcast"

    def test_call_fields_override_bound(self):
        log = StructLogger(phase="outer")
        log.event("x", phase="inner")
        assert log.events[0]["phase"] == "inner"

    def test_bound_view(self):
        log = StructLogger(app="mm")
        assert log.bind(rank=1).bound == {"app": "mm", "rank": 1}


class TestSinks:
    def test_list_sink_is_shared(self):
        events = []
        log = StructLogger(events)
        log.event("a")
        log.bind(rank=0).event("b")
        assert [e["event"] for e in events] == ["a", "b"]

    def test_path_sink_writes_jsonl(self, tmp_path):
        path = tmp_path / "logs" / "run.jsonl"
        with StructLogger(path, run_id="r9") as log:
            log.event("one", n=1)
            log.event("two", n=2)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert [p["event"] for p in parsed] == ["one", "two"]
        assert all(p["run_id"] == "r9" for p in parsed)

    def test_stream_sink(self):
        class Buffer:
            def __init__(self):
                self.text = ""

            def write(self, chunk):
                self.text += chunk

        buffer = Buffer()
        StructLogger(buffer).event("streamed")
        assert json.loads(buffer.text)["event"] == "streamed"

    def test_invalid_sink_rejected(self):
        with pytest.raises(TypeError):
            StructLogger(42)

    def test_stderr_logger_writes_jsonl(self, capsys):
        stderr_logger(source="test").warning("boom", detail=1)
        err = capsys.readouterr().err
        parsed = json.loads(err)
        assert parsed["event"] == "boom"
        assert parsed["level"] == "warning"
        assert parsed["source"] == "test"


class TestWarnOnce:
    def test_second_warning_suppressed(self):
        log = StructLogger()
        assert log.warn_once("k", "warned") is True
        assert log.warn_once("k", "warned") is False
        assert len(log.events) == 1

    def test_dedup_is_sink_wide(self):
        log = StructLogger()
        child = log.bind(rank=1)
        assert log.warn_once("k", "warned") is True
        assert child.warn_once("k", "warned") is False


class TestEngineHooks:
    def test_append_and_run_complete(self):
        from repro.sim.engine import RunResult

        log = StructLogger()
        log.append((2, "send", 0.0, 1.5, 0, 3, 64.0))
        log.append((0, "compute", 0.0, 2.0, 100.0))
        log.run_complete(RunResult(
            finish_times=[2.0], stats=[], events=5, wall_seconds=0.1,
            heap_pushes=7, stale_pops=1, heap_pops=7,
        ))
        ops = [e for e in log.events if e["event"] == "sim.op"]
        assert ops[0]["op"] == "send" and ops[0]["nbytes"] == 64.0
        assert ops[1]["op"] == "compute" and ops[1]["flops"] == 100.0
        (profile,) = [
            e for e in log.events if e["event"] == "engine.self_profile"
        ]
        assert profile["events"] == 5 and profile["makespan"] == 2.0

    def test_runner_emits_run_events_with_bound_fields(self):
        from repro.experiments import run_ge

        log = StructLogger()
        run_ge(ge_configuration(2), 40, log=log)
        names = [e["event"] for e in log.events]
        assert "engine.run_start" in names
        assert "engine.run_complete" in names
        complete = [
            e for e in log.events if e["event"] == "engine.run_complete"
        ][-1]
        assert complete["app"] == "ge"
        assert complete["n"] == 40
        assert complete["cluster"] == "sunwulf-ge-2"
        assert complete["makespan"] > 0
        assert complete["events"] > 0

    def test_logger_as_metrics_sink_logs_every_op(self):
        from repro.experiments import run_ge

        log = StructLogger()
        record = run_ge(ge_configuration(2), 30, metrics=log)
        ops = [e for e in log.events if e["event"] == "sim.op"]
        assert len(ops) == record.run.events
