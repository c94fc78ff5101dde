"""Cross-process sweep telemetry: executor integration tests.

The acceptance contract of the telemetry layer: a cache-cold 2-job
sweep attributes >=95% of its parallel wall time to named phases, every
canonical phase is observed, and turning telemetry on never changes a
single simulated value (the bit-identity contract of the executor
extends to the telemetered paths).
"""

from __future__ import annotations

import pytest

from repro.experiments.executor import RunCache, SweepExecutor, SweepPoint
from repro.experiments.runner import ledger_recording
from repro.experiments.sweep import efficiency_curve
from repro.obs.ledger import RunLedger
from repro.obs.telemetry import PHASES, ROOT_SPAN

from .test_executor import record_signature

SIZES = (60, 90, 120)


def fresh_cache(tmp_path):
    return RunCache(tmp_path / "cache")


class TestAcceptance:
    def test_cold_parallel_sweep_attributes_wall_time(
        self, ge2_cluster, tmp_path, cold_pool
    ):
        """The headline gate: cold, jobs=2, every phase observed and
        >=95% of the wall explained by named phase spans.

        ``cold_pool`` shuts the process-wide shared pool down first --
        it may already be warm from an earlier test, and a warm sweep
        legitimately has no spawn phase (covered by ``TestPoolReuse``).
        """
        exe = SweepExecutor(
            jobs=2, cache=fresh_cache(tmp_path), telemetry=True
        )
        efficiency_curve("ge", ge2_cluster, SIZES, executor=exe)
        timeline = exe.timeline
        assert timeline is not None
        assert timeline.points == len(SIZES)
        totals = timeline.phase_totals()
        for phase in PHASES:
            assert totals[phase] > 0.0, f"phase {phase} unobserved: {totals}"
        assert timeline.wall_seconds > 0.0
        assert timeline.coverage() >= 0.95
        assert timeline.pool_spawns == 1
        assert timeline.pool_reuse is False

    def test_worker_summaries_cover_the_pool(self, ge2_cluster, tmp_path):
        exe = SweepExecutor(
            jobs=2, cache=fresh_cache(tmp_path), telemetry=True
        )
        efficiency_curve("ge", ge2_cluster, SIZES, executor=exe)
        summaries = exe.timeline.worker_summaries()
        assert len(summaries) == 2
        assert sum(s["tasks"] for s in summaries) == len(SIZES)
        for s in summaries:
            assert 0.0 < s["utilization"] <= 1.0

    def test_setup_span_lands_in_next_timeline(self, ge2_cluster, tmp_path):
        # efficiency_curve wraps marked_speed_of in a setup span.
        exe = SweepExecutor(
            jobs=2, cache=fresh_cache(tmp_path), telemetry=True
        )
        efficiency_curve("ge", ge2_cluster, SIZES, executor=exe)
        names = [s.name for s in exe.timeline.parent.spans]
        assert "marked_speed" in names

    def test_engine_run_span_per_point(self, ge2_cluster, tmp_path):
        exe = SweepExecutor(
            jobs=2, cache=fresh_cache(tmp_path), telemetry=True
        )
        efficiency_curve("ge", ge2_cluster, SIZES, executor=exe)
        runs = [s for s in exe.timeline.all_spans() if s.name == "engine_run"]
        assert len(runs) == len(SIZES)


class TestBitIdentity:
    def test_telemetry_does_not_change_results(self, ge2_cluster, tmp_path):
        """Zero-cost-when-on, for the *results*: every simulated value is
        identical with telemetry enabled."""
        plain = efficiency_curve(
            "ge", ge2_cluster, SIZES,
            executor=SweepExecutor(jobs=2, cache=fresh_cache(tmp_path / "a")),
        )
        telemetered = efficiency_curve(
            "ge", ge2_cluster, SIZES,
            executor=SweepExecutor(
                jobs=2, cache=fresh_cache(tmp_path / "b"), telemetry=True
            ),
        )
        for a, b in zip(plain.records, telemetered.records):
            assert record_signature(a) == record_signature(b)

    def test_telemetry_off_by_default_no_timeline(self, ge2_cluster, tmp_path):
        exe = SweepExecutor(jobs=2, cache=fresh_cache(tmp_path))
        efficiency_curve("ge", ge2_cluster, SIZES, executor=exe)
        assert exe.telemetry is False
        assert exe.timeline is None


class TestOtherPaths:
    def test_serial_unmanaged_telemetry(self, ge2_cluster):
        """jobs=1, no cache: the legacy path gains a root + engine_run
        spans and full coverage (the engine IS the wall)."""
        exe = SweepExecutor(telemetry=True)
        records = efficiency_curve(
            "ge", ge2_cluster, SIZES, executor=exe
        ).records
        assert len(records) == len(SIZES)
        timeline = exe.timeline
        counts = timeline.phase_counts()
        assert counts["engine_run"] == len(SIZES)
        assert counts["spawn"] == 0
        assert timeline.coverage() >= 0.95

    def test_warm_sweep_is_probe_plus_collect(self, ge2_cluster, tmp_path):
        cache = fresh_cache(tmp_path)
        points = [SweepPoint.make("ge", ge2_cluster, n) for n in SIZES]
        SweepExecutor(cache=cache).run_points(points)
        # Every point replayed ten times in one batch: a warm sweep is
        # all cache hits, and a short one lets a single scheduling or GC
        # gap between spans dominate its wall.
        batch = points * 10
        warm = SweepExecutor(jobs=2, cache=cache, telemetry=True)
        warm.run_points(batch)
        assert warm.cache_stats() == {"hits": len(batch), "misses": 0}
        counts = warm.timeline.phase_counts()
        assert counts["engine_run"] == 0
        assert counts["spawn"] == 0
        assert counts["cache_probe"] == len(batch)
        assert counts["collect"] >= len(batch)
        # Gaps between spans still weigh more than on a cold sweep; the
        # >=95% gate applies to cold sweeps only.
        assert warm.timeline.coverage() >= 0.5

    def test_timeline_is_per_sweep(self, ge2_cluster, tmp_path):
        exe = SweepExecutor(
            jobs=2, cache=fresh_cache(tmp_path), telemetry=True
        )
        efficiency_curve("ge", ge2_cluster, SIZES, executor=exe)
        first = exe.timeline
        efficiency_curve("ge", ge2_cluster, SIZES, executor=exe)
        assert exe.timeline is not first
        # Second sweep is warm: no engine runs in its timeline.
        assert exe.timeline.phase_counts()["engine_run"] == 0


class TestSweepLedgerRecord:
    def test_sweep_record_with_telemetry_block(self, ge2_cluster, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        exe = SweepExecutor(
            jobs=2, cache=fresh_cache(tmp_path), telemetry=True
        )
        with ledger_recording(ledger):
            efficiency_curve("ge", ge2_cluster, SIZES, executor=exe)
        entries = list(ledger.entries())
        sweeps = [e for e in entries if e.source == "sweep"]
        runs = [e for e in entries if e.source == "run"]
        assert len(sweeps) == 1
        assert len(runs) == len(SIZES)
        doc = ledger.load(sweeps[0].run_id)
        telemetry = doc["telemetry"]
        assert telemetry["points"] == len(SIZES)
        assert telemetry["coverage"] >= 0.95
        assert set(PHASES) <= set(telemetry["phases"])
        assert ROOT_SPAN not in telemetry["phases"]
        assert doc["metrics"]["cache_misses"] == float(len(SIZES))
        assert doc["metrics"]["phase_engine_run_seconds"] > 0.0

    def test_no_sweep_record_without_telemetry(self, ge2_cluster, tmp_path):
        """The pre-telemetry ledger contract is untouched by default."""
        ledger = RunLedger(tmp_path / "ledger")
        exe = SweepExecutor(jobs=2, cache=fresh_cache(tmp_path))
        with ledger_recording(ledger):
            efficiency_curve("ge", ge2_cluster, SIZES, executor=exe)
        sources = [e.source for e in ledger.entries()]
        assert sources == ["run"] * len(SIZES)
