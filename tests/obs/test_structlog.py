"""Tests for the structured JSONL event logger."""

import json

import pytest

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
