"""Tests for the sweep-telemetry aggregation (synthetic spans)."""

import pytest

from repro.obs.telemetry import (
    PHASES,
    ROOT_SPAN,
    SweepTimeline,
    WorkerTelemetry,
    merged_length,
)


class TestMergedLength:
    def test_disjoint(self):
        assert merged_length([(0.0, 1.0), (2.0, 3.0)]) == pytest.approx(2.0)

    def test_overlapping_merge(self):
        assert merged_length([(0.0, 2.0), (1.0, 3.0)]) == pytest.approx(3.0)

    def test_contained_and_empty_intervals_ignored(self):
        assert merged_length([(0.0, 4.0), (1.0, 2.0), (5.0, 5.0),
                              (7.0, 6.0)]) == pytest.approx(4.0)

    def test_empty(self):
        assert merged_length([]) == 0.0


def synthetic_timeline() -> SweepTimeline:
    """Two workers under a [0, 10] sweep root, phases hand-placed."""
    tl = SweepTimeline(jobs=2)
    tl.points = 2
    tl.parent.add(ROOT_SPAN, 0.0, 10.0)
    tl.parent.add("cache_probe", 0.0, 1.0)
    tl.parent.add("spawn", 1.0, 2.0)
    tl.parent.add("collect", 9.0, 10.0)
    tl.add_worker_spans([
        {"name": "spawn", "start": 1.0, "end": 2.5, "pid": 101,
         "worker": "worker-101"},
        {"name": "queue_wait", "start": 2.5, "end": 3.0, "pid": 101,
         "worker": "worker-101"},
        {"name": "engine_run", "start": 3.0, "end": 8.0, "pid": 101,
         "worker": "worker-101"},
        {"name": "serialize", "start": 8.0, "end": 9.0, "pid": 101,
         "worker": "worker-101"},
        {"name": "spawn", "start": 1.0, "end": 3.0, "pid": 102,
         "worker": "worker-102"},
        {"name": "engine_run", "start": 3.0, "end": 7.0, "pid": 102,
         "worker": "worker-102"},
    ])
    return tl


class TestSweepTimeline:
    def test_wall_is_root_window(self):
        assert synthetic_timeline().wall_seconds == pytest.approx(10.0)

    def test_phase_totals_are_worker_seconds(self):
        totals = synthetic_timeline().phase_totals()
        assert totals["spawn"] == pytest.approx(1.0 + 1.5 + 2.0)
        assert totals["engine_run"] == pytest.approx(5.0 + 4.0)
        assert totals["cache_write"] == 0.0  # canonical phase, unobserved
        assert list(totals)[: len(PHASES)] == list(PHASES)

    def test_phase_counts(self):
        counts = synthetic_timeline().phase_counts()
        assert counts["spawn"] == 3
        assert counts["engine_run"] == 2
        assert counts["cache_write"] == 0

    def test_root_span_excluded_from_phases(self):
        assert ROOT_SPAN not in synthetic_timeline().phase_totals()

    def test_coverage_is_clipped_union_over_wall(self):
        # Phases tile [0, 10] completely -> full coverage.
        assert synthetic_timeline().coverage() == pytest.approx(1.0)

    def test_coverage_sees_gaps(self):
        tl = SweepTimeline()
        tl.parent.add(ROOT_SPAN, 0.0, 10.0)
        tl.parent.add("engine_run", 0.0, 4.0)
        assert tl.coverage() == pytest.approx(0.4)

    def test_coverage_clips_spans_outside_root(self):
        tl = SweepTimeline()
        tl.parent.add(ROOT_SPAN, 5.0, 10.0)
        tl.parent.add("marked_speed", 0.0, 5.0)  # setup, before the root
        tl.parent.add("engine_run", 5.0, 10.0)
        assert tl.coverage() == pytest.approx(1.0)

    def test_coverage_zero_without_root(self):
        tl = SweepTimeline()
        tl.parent.add("engine_run", 0.0, 1.0)
        assert tl.coverage() == 0.0

    def test_worker_summaries(self):
        summaries = synthetic_timeline().worker_summaries()
        assert [s["worker"] for s in summaries] == [
            "worker-101", "worker-102",
        ]
        w101 = summaries[0]
        # Window 1.0..9.0; busy = engine_run 5.0 + serialize 1.0.
        assert w101["window_seconds"] == pytest.approx(8.0)
        assert w101["busy_seconds"] == pytest.approx(6.0)
        assert w101["utilization"] == pytest.approx(0.75)
        assert w101["tasks"] == 1
        assert w101["pid"] == 101

    def test_mean_utilization_empty(self):
        assert SweepTimeline().mean_utilization() == 0.0

    def test_to_dict_shape(self):
        doc = synthetic_timeline().to_dict()
        assert doc["jobs"] == 2
        assert doc["points"] == 2
        assert doc["wall_seconds"] == pytest.approx(10.0)
        assert set(doc["phases"]) == set(doc["phase_counts"])
        assert len(doc["workers"]) == 2

    def test_setup_spans_split_from_canonical_phases(self):
        tl = synthetic_timeline()
        tl.parent.add("marked_speed", 0.2, 0.7)
        tl.parent.add("marked_speed", 0.7, 0.9)
        tl.parent.add("schedule_build", 0.9, 1.0)
        # The canonical phase schema never grows surprise keys...
        assert set(tl.phase_totals()) == set(PHASES)
        assert set(tl.phase_counts()) == set(PHASES)
        # ...driver setup spans land in their own (sorted) block.
        setup = tl.setup_totals()
        assert list(setup) == ["marked_speed", "schedule_build"]
        assert setup["marked_speed"] == pytest.approx(0.7)
        assert tl.setup_counts() == {"marked_speed": 2, "schedule_build": 1}
        assert ROOT_SPAN not in setup

    def test_setup_spans_in_to_dict_and_flat_metrics(self):
        tl = synthetic_timeline()
        tl.parent.add("marked_speed", 0.2, 0.7)
        doc = tl.to_dict()
        assert set(doc["phases"]) == set(PHASES)
        assert doc["setup_spans"] == {"marked_speed": pytest.approx(0.5)}
        metrics = tl.flat_metrics()
        assert metrics["setup_marked_speed_seconds"] == pytest.approx(0.5)

    def test_setup_spans_empty_without_noncanonical_names(self):
        tl = synthetic_timeline()
        assert tl.setup_totals() == {}
        assert tl.to_dict()["setup_spans"] == {}

    def test_setup_spans_still_count_toward_coverage(self):
        tl = SweepTimeline()
        tl.parent.add(ROOT_SPAN, 0.0, 10.0)
        tl.parent.add("engine_run", 0.0, 5.0)
        tl.parent.add("marked_speed", 5.0, 10.0)
        assert tl.coverage() == pytest.approx(1.0)

    def test_format_report_shows_setup_rows(self):
        tl = synthetic_timeline()
        tl.parent.add("marked_speed", 0.2, 0.7)
        report = tl.format_report(title="T")
        assert "setup:marked_speed" in report

    def test_flat_metrics_names(self):
        metrics = synthetic_timeline().flat_metrics()
        for phase in PHASES:
            assert f"phase_{phase}_seconds" in metrics
        assert metrics["telemetry_coverage"] == pytest.approx(1.0)
        assert metrics["jobs"] == 2.0

    def test_format_report_mentions_phases_and_coverage(self):
        report = synthetic_timeline().format_report(title="T")
        for phase in PHASES:
            assert phase in report
        assert "coverage" in report
        assert "worker-101" in report

    def test_format_report_explains_slower_than_serial(self):
        report = synthetic_timeline().format_report(serial_seconds=5.0)
        assert "0.50x" in report
        assert "slower than serial" in report
        # Largest overhead phase in the synthetic data is spawn (4.5 s).
        assert "largest: spawn" in report

    def test_format_report_faster_than_serial_has_no_blame_line(self):
        report = synthetic_timeline().format_report(serial_seconds=20.0)
        assert "2.00x" in report
        assert "slower than serial" not in report


class TestWorkerTelemetry:
    def test_spawn_span_from_pool_creation(self):
        worker = WorkerTelemetry(pool_created_at=0.0)
        (span,) = worker.recorder.spans
        assert span.name == "spawn"
        assert span.start == 0.0
        assert span.end > 0.0

    def test_no_spawn_without_timestamp(self):
        assert WorkerTelemetry().recorder.spans == []

    def test_start_task_records_queue_wait(self):
        worker = WorkerTelemetry()
        worker.start_task(submitted_at=0.0)
        worker.start_task(submitted_at=0.0)
        names = [s.name for s in worker.recorder.spans]
        assert names == ["queue_wait", "queue_wait"]
        assert [s.meta["task"] for s in worker.recorder.spans] == [1, 2]

    def test_drain_ships_incrementally(self):
        worker = WorkerTelemetry(pool_created_at=0.0)
        first = worker.drain()
        assert [d["name"] for d in first] == ["spawn"]
        worker.start_task(submitted_at=0.0)
        second = worker.drain()
        assert [d["name"] for d in second] == ["queue_wait"]
        assert worker.drain() == []
