"""Parallel sweep executor + content-addressed run cache tests.

The load-bearing contract: a parallel, cache-cold sweep is bit-identical
to the serial legacy path for every measurement, per-rank statistic and
derived metric, and a cache-warm sweep replays those exact values.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.executor import (
    RunCache,
    SweepExecutor,
    SweepPoint,
    point_profile_hash,
    resolve_executor,
    run_record_from_payload,
    run_record_to_payload,
    sweep_execution,
)
from repro.experiments.runcache import SEGMENT_HEADER, SEGMENT_SUFFIX
from repro.experiments.runner import ledger_recording, marked_speed_of, run_app
from repro.experiments.sweep import efficiency_curve, required_size_by_simulation
from repro.faults.run import slowdown_sweep
from repro.faults.schedule import uniform_slowdown
from repro.obs.ledger import RunLedger
from repro.sim.engine import Engine

SIZES = (60, 90, 120)


def fresh_cache(tmp_path):
    return RunCache(tmp_path / "cache")


def record_signature(record):
    """Everything deterministic about a run (wall_seconds excluded)."""
    run = record.run
    return (
        record.measurement,
        record.compute_efficiency,
        record.marked,
        tuple(run.finish_times),
        tuple(run.stats),
        run.events,
        run.undelivered_messages,
        run.heap_pushes,
        run.heap_pops,
        run.stale_pops,
    )


class TestBitIdentity:
    def test_parallel_cold_matches_serial(self, ge2_cluster, tmp_path):
        """jobs=4, cache-cold must equal the serial legacy path bit for
        bit: measurements, RankStats, finish times, engine counters."""
        serial = efficiency_curve("ge", ge2_cluster, SIZES)
        exe = SweepExecutor(jobs=4, cache=fresh_cache(tmp_path))
        parallel = efficiency_curve("ge", ge2_cluster, SIZES, executor=exe)
        assert exe.cache_stats() == {"hits": 0, "misses": len(SIZES)}
        for a, b in zip(serial.records, parallel.records):
            assert record_signature(a) == record_signature(b)

    def test_warm_cache_replays_identically(self, ge2_cluster, tmp_path):
        cache = fresh_cache(tmp_path)
        cold = efficiency_curve(
            "ge", ge2_cluster, SIZES, executor=SweepExecutor(cache=cache)
        )
        warm_exe = SweepExecutor(jobs=2, cache=cache)
        warm = efficiency_curve("ge", ge2_cluster, SIZES, executor=warm_exe)
        assert warm_exe.cache_stats() == {"hits": len(SIZES), "misses": 0}
        for a, b in zip(cold.records, warm.records):
            assert record_signature(a) == record_signature(b)
            # wall_seconds replays the value stored at record time.
            assert a.run.wall_seconds == b.run.wall_seconds

    def test_warm_replay_simulates_nothing(self, ge2_cluster, tmp_path,
                                           monkeypatch):
        """A warm replay runs no simulation, so it cannot be slower than
        the cold sweep that ran them all."""
        calls = 0
        real_run = Engine.run

        def counting_run(self, *args, **kwargs):
            nonlocal calls
            calls += 1
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(Engine, "run", counting_run)
        sizes = [24, 28, 34, 40]
        cache = fresh_cache(tmp_path)
        efficiency_curve("ge", ge2_cluster, sizes,
                         executor=SweepExecutor(cache=cache))
        assert calls > 0
        calls = 0
        warm_exe = SweepExecutor(cache=cache)
        efficiency_curve("ge", ge2_cluster, sizes, executor=warm_exe)
        assert warm_exe.cache_stats() == {"hits": 4, "misses": 0}
        assert calls == 0

    def test_faulted_sweep_parallel_matches_serial(self, ge2_cluster, tmp_path):
        """ψ and every derived fault metric agree across serial, parallel
        cache-cold and cache-warm executions."""
        kwargs = dict(severities=(0.0, 0.3), seed=0)
        serial = slowdown_sweep("ge", ge2_cluster, 120, **kwargs)
        cache = fresh_cache(tmp_path)
        cold = slowdown_sweep(
            "ge", ge2_cluster, 120,
            executor=SweepExecutor(jobs=3, cache=cache), **kwargs,
        )
        warm = slowdown_sweep(
            "ge", ge2_cluster, 120,
            executor=SweepExecutor(jobs=3, cache=cache), **kwargs,
        )
        assert serial == cold == warm

    def test_required_size_parallel_matches_serial(self, ge2_cluster, tmp_path):
        n_serial, rec_serial = required_size_by_simulation(
            "ge", ge2_cluster, 0.2
        )
        exe = SweepExecutor(jobs=2, cache=fresh_cache(tmp_path))
        n_par, rec_par = required_size_by_simulation(
            "ge", ge2_cluster, 0.2, executor=exe
        )
        assert n_par == n_serial
        assert record_signature(rec_par) == record_signature(rec_serial)
        assert exe.misses >= 1


def segments(root):
    return sorted(root.glob(f"*{SEGMENT_SUFFIX}"))


def entry_keys(segment):
    """Keys of the complete entry lines of one segment, in order."""
    lines = segment.read_bytes().split(b"\n")[1:-1]  # header, torn tail
    return [line.split(b"\t", 1)[0].decode() for line in lines]


class TestRunCache:
    def test_round_trip(self, ge2_cluster, tmp_path):
        record = run_app("ge", ge2_cluster, 80)
        cache = fresh_cache(tmp_path)
        key = "ab" + "0" * 62
        path = cache.put(key, run_record_to_payload(record))
        assert len(cache) == 1
        # One segment: its header line, then one compact entry line.
        assert segments(cache.root) == [path]
        assert path.read_bytes().startswith(SEGMENT_HEADER)
        assert entry_keys(path) == [key]
        for reader in (cache, RunCache(cache.root)):
            loaded = run_record_from_payload(reader.get(key),
                                             marked_speed_of(ge2_cluster))
            assert record_signature(loaded) == record_signature(record)
            assert loaded.app_result is None
            assert loaded.run.tracer is None
        assert len(RunCache(cache.root)) == 1

    def test_missing_key_is_miss(self, tmp_path):
        assert fresh_cache(tmp_path).get("ff" + "0" * 62) is None

    def test_corrupt_entry_is_miss_not_error(self, ge2_cluster, tmp_path):
        record = run_app("ge", ge2_cluster, 80)
        cache = fresh_cache(tmp_path)
        key = "ab" + "0" * 62
        path = cache.put(key, run_record_to_payload(record))
        path.write_bytes(SEGMENT_HEADER + key.encode() + b"\t{ not json\n")
        assert RunCache(cache.root).get(key) is None
        cache.refresh()
        assert cache.get(key) is None
        # A complete entry under a wrong-kind header is a miss too.
        line = key.encode() + b"\t" + json.dumps(
            run_record_to_payload(record)).encode() + b"\n"
        path.write_bytes(json.dumps({"kind": "something-else"}).encode()
                         + b"\n" + line)
        assert RunCache(cache.root).get(key) is None
        path.write_bytes(SEGMENT_HEADER + line)
        assert RunCache(cache.root).get(key) is not None

    def test_corrupt_entry_refills_on_next_sweep(self, ge2_cluster, tmp_path):
        cache = fresh_cache(tmp_path)
        exe = SweepExecutor(cache=cache)
        exe.run_points([SweepPoint.make("ge", ge2_cluster, 80)])
        (segment,) = segments(cache.root)
        header, entry = segment.read_bytes().splitlines(keepends=True)
        key = entry.split(b"\t", 1)[0]
        segment.write_bytes(header + key + b"\tcorrupt\n")
        exe2 = SweepExecutor(cache=cache)
        exe2.run_points([SweepPoint.make("ge", ge2_cluster, 80)])
        assert exe2.cache_stats() == {"hits": 0, "misses": 1}
        # ... and the rewritten entry hits again.
        exe3 = SweepExecutor(cache=cache)
        exe3.run_points([SweepPoint.make("ge", ge2_cluster, 80)])
        assert exe3.cache_stats() == {"hits": 1, "misses": 0}

    def test_last_complete_line_wins_across_segments(
        self, ge2_cluster, tmp_path
    ):
        """A fresh reader scans segments oldest-modified first, so the
        refill of a corrupt entry, in a newer segment, wins."""
        point = SweepPoint.make("ge", ge2_cluster, 80)
        key = point_profile_hash(point)
        cache = fresh_cache(tmp_path)
        cache.root.mkdir(parents=True)
        # Named to sort after any writer's segment, modified long ago.
        stale = cache.root / f"99999999-old{SEGMENT_SUFFIX}"
        stale.write_bytes(SEGMENT_HEADER + key.encode() + b"\tcorrupt\n")
        os.utime(stale, ns=(1, 1))
        exe = SweepExecutor(cache=cache)
        exe.run_points([point])
        assert exe.cache_stats() == {"hits": 0, "misses": 1}
        exe2 = SweepExecutor(cache=RunCache(cache.root))
        exe2.run_points([point])
        assert exe2.cache_stats() == {"hits": 1, "misses": 0}

    def test_env_var_sets_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert RunCache().root == tmp_path / "elsewhere"


class TestProfileHash:
    def test_stable(self, ge2_cluster):
        p = SweepPoint.make("ge", ge2_cluster, 100, seed=3)
        assert point_profile_hash(p) == point_profile_hash(p)

    def test_sensitive_to_everything_that_matters(self, ge2_cluster,
                                                  mm2_cluster):
        base = point_profile_hash(SweepPoint.make("ge", ge2_cluster, 100))
        assert base is not None
        others = [
            SweepPoint.make("ge", ge2_cluster, 101),          # size
            SweepPoint.make("mm", ge2_cluster, 100),          # app
            SweepPoint.make("ge", mm2_cluster, 100),          # cluster
            SweepPoint.make("ge", ge2_cluster, 100, seed=1),  # kwargs
            SweepPoint.make(                                  # schedule
                "ge", ge2_cluster, 100,
                schedule=uniform_slowdown(ge2_cluster.nranks, 0.2),
            ),
        ]
        hashes = [point_profile_hash(p) for p in others]
        assert all(h is not None and h != base for h in hashes)
        assert len(set(hashes)) == len(hashes)

    def test_marked_speed_is_part_of_the_key(self, ge2_cluster):
        marked = marked_speed_of(ge2_cluster)
        with_marked = point_profile_hash(
            SweepPoint.make("ge", ge2_cluster, 100, marked=marked)
        )
        without = point_profile_hash(SweepPoint.make("ge", ge2_cluster, 100))
        assert with_marked is not None and with_marked != without

    def test_side_effect_kwargs_disable_caching(self, ge2_cluster):
        from repro.sim.trace import Tracer

        p = SweepPoint.make("ge", ge2_cluster, 100, tracer=Tracer())
        assert p.local  # captured as a local (in-process-only) kwarg
        assert point_profile_hash(p) is None

    def test_uncacheable_kwarg_value_disables_caching(self, ge2_cluster):
        p = SweepPoint.make("ge", ge2_cluster, 100, numeric=object())
        assert point_profile_hash(p) is None

    def test_uncacheable_points_still_execute(self, ge2_cluster, tmp_path):
        class FalsyFlag:  # no canonical JSON form, but behaves like False
            def __bool__(self):
                return False

        cache = fresh_cache(tmp_path)
        exe = SweepExecutor(jobs=2, cache=cache)
        point = SweepPoint.make("ge", ge2_cluster, 80, numeric=FalsyFlag())
        records = exe.run_points([point])
        baseline = run_app("ge", ge2_cluster, 80)
        assert record_signature(records[0]) == record_signature(baseline)
        assert len(cache) == 0  # unkeyable points are never written
        assert exe.cache_stats() == {"hits": 0, "misses": 1}

    def test_version_bump_invalidates(self, ge2_cluster, monkeypatch):
        import repro

        before = point_profile_hash(SweepPoint.make("ge", ge2_cluster, 100))
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        after = point_profile_hash(SweepPoint.make("ge", ge2_cluster, 100))
        assert before != after


class TestExecutorModes:
    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            SweepExecutor(jobs=0)

    def test_default_is_passthrough(self, ge2_cluster):
        exe = SweepExecutor()
        assert not exe._managed
        record = exe.run_point(SweepPoint.make("ge", ge2_cluster, 80))
        direct = run_app("ge", ge2_cluster, 80)
        assert record_signature(record) == record_signature(direct)
        assert exe.cache_stats() == {"hits": 0, "misses": 0}

    def test_passthrough_respects_ambient_ledger(self, ge2_cluster, tmp_path):
        """jobs=1, no cache: run_app's own ledger hook stays in charge."""
        ledger = RunLedger(tmp_path / "ledger")
        with ledger_recording(ledger):
            SweepExecutor().run_point(SweepPoint.make("ge", ge2_cluster, 80))
        entries = list(ledger.entries())
        assert len(entries) == 1
        loaded = ledger.load(entries[0].run_id)
        assert "cache_hit" not in loaded["metrics"]

    def test_managed_mode_records_cache_hit_metric(self, ge2_cluster,
                                                   tmp_path):
        cache = fresh_cache(tmp_path)
        ledger = RunLedger(tmp_path / "ledger")
        points = [SweepPoint.make("ge", ge2_cluster, n) for n in (60, 90)]
        with ledger_recording(ledger):
            SweepExecutor(cache=cache).run_points(points)
            SweepExecutor(cache=cache).run_points(points)
        entries = list(ledger.entries())
        assert len(entries) == 4  # one record per point per sweep, no doubles
        cache_hits = [
            ledger.load(e.run_id)["metrics"]["cache_hit"] for e in entries
        ]
        assert cache_hits == [0.0, 0.0, 1.0, 1.0]

    def test_hit_and_miss_counters(self, ge2_cluster, tmp_path):
        exe = SweepExecutor(cache=fresh_cache(tmp_path))
        point = SweepPoint.make("ge", ge2_cluster, 80)
        exe.run_points([point])
        exe.run_points([point])
        stats = exe.cache_stats()
        assert stats == {"hits": 1, "misses": 1}
        assert all(type(n) is int for n in stats.values())

    def test_active_trace_collector_bypasses_cache(self, ge2_cluster,
                                                   tmp_path):
        from repro.experiments.runner import collect_traces

        cache = fresh_cache(tmp_path)
        point = SweepPoint.make("ge", ge2_cluster, 80)
        SweepExecutor(cache=cache).run_points([point])
        with collect_traces() as collector:
            exe = SweepExecutor(cache=cache)
            exe.run_points([point])
        # The cached entry must not shadow the traced execution.
        assert exe.cache_stats() == {"hits": 0, "misses": 1}
        assert len(collector.runs) == 1


class TestAmbientExecutor:
    def test_explicit_beats_ambient_beats_default(self, tmp_path):
        a = SweepExecutor(jobs=2, cache=fresh_cache(tmp_path))
        b = SweepExecutor()
        with sweep_execution(a):
            assert resolve_executor() is a
            assert resolve_executor(b) is b
            with sweep_execution(b):
                assert resolve_executor() is b
            assert resolve_executor() is a
        default = resolve_executor()
        assert default.jobs == 1 and default.cache is None

    def test_sweeps_consult_ambient(self, ge2_cluster, tmp_path):
        exe = SweepExecutor(cache=fresh_cache(tmp_path))
        with sweep_execution(exe):
            efficiency_curve("ge", ge2_cluster, SIZES)
        assert exe.cache_stats() == {"hits": 0, "misses": len(SIZES)}


class TestBisectionPrefetcher:
    def test_unreachable_target_defers_to_serial_error(self, ge2_cluster,
                                                       tmp_path):
        from repro.core.types import MetricError

        exe = SweepExecutor(jobs=2, cache=fresh_cache(tmp_path))
        with pytest.raises(MetricError):
            required_size_by_simulation(
                "ge", ge2_cluster, 0.999, max_upper=128, executor=exe
            )


class RecordingProgress:
    """Captures the executor->reporter call contract."""

    def __init__(self):
        self.begun = None
        self.ticks = []
        self.busy = 0.0
        self.finished = 0

    def begin(self, total, label="sweep", workers=1):
        self.begun = {"total": total, "label": label, "workers": workers}

    def point_done(self, hit=False):
        self.ticks.append(hit)

    def note_busy_seconds(self, seconds):
        self.busy += seconds

    def finish(self):
        self.finished += 1


class TestProgress:
    def test_serial_legacy_path_ticks_every_point(self, ge2_cluster):
        progress = RecordingProgress()
        exe = SweepExecutor(progress=progress)
        efficiency_curve("ge", ge2_cluster, SIZES, executor=exe)
        assert progress.begun == {"total": len(SIZES), "label": "sweep",
                                  "workers": 1}
        assert progress.ticks == [False] * len(SIZES)
        assert progress.finished == 1

    def test_warm_cache_ticks_as_hits(self, ge2_cluster, tmp_path):
        cache = fresh_cache(tmp_path)
        efficiency_curve("ge", ge2_cluster, SIZES,
                         executor=SweepExecutor(cache=cache))
        progress = RecordingProgress()
        exe = SweepExecutor(cache=cache, progress=progress)
        efficiency_curve("ge", ge2_cluster, SIZES, executor=exe)
        assert progress.ticks == [True] * len(SIZES)
        assert progress.finished == 1

    def test_pool_path_ticks_and_reports_workers(self, ge2_cluster, tmp_path):
        progress = RecordingProgress()
        exe = SweepExecutor(jobs=2, cache=fresh_cache(tmp_path),
                            progress=progress)
        efficiency_curve("ge", ge2_cluster, SIZES, executor=exe)
        assert progress.begun["workers"] == 2
        assert progress.ticks == [False] * len(SIZES)
        assert progress.finished == 1

    def test_telemetered_pool_credits_busy_seconds(self, ge2_cluster,
                                                   tmp_path):
        progress = RecordingProgress()
        exe = SweepExecutor(jobs=2, cache=fresh_cache(tmp_path),
                            telemetry=True, progress=progress)
        efficiency_curve("ge", ge2_cluster, SIZES, executor=exe)
        assert progress.ticks == [False] * len(SIZES)
        # engine_run/serialize spans from the workers landed as busy time.
        assert progress.busy > 0.0
        assert progress.finished == 1

    def test_real_reporter_end_to_end(self, ge2_cluster, tmp_path):
        import io

        from repro.obs.streaming import ProgressReporter

        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, interval=0.0)
        exe = SweepExecutor(cache=fresh_cache(tmp_path), progress=reporter)
        efficiency_curve("ge", ge2_cluster, SIZES, executor=exe)
        out = stream.getvalue()
        assert f"{len(SIZES)}/{len(SIZES)} points" in out
        assert "elapsed" in out
        assert reporter.done == len(SIZES)


class TestRankSummaryThreshold:
    def test_default_threshold_keeps_full_stats(self, ge2_cluster):
        record = run_app("ge", ge2_cluster, 80)
        payload = run_record_to_payload(record)
        assert "stats" in payload["run"]
        assert "rank_summary" not in payload["run"]

    def test_large_runs_store_summary_only(self, ge2_cluster, monkeypatch):
        from repro.experiments import executor

        monkeypatch.setattr(executor, "RANK_SUMMARY_THRESHOLD", 1)
        record = run_app("ge", ge2_cluster, 80)
        payload = run_record_to_payload(record)
        run_block = payload["run"]
        assert "stats" not in run_block and "finish_times" not in run_block
        assert run_block["nranks"] == len(record.run.stats)
        summary = run_block["rank_summary"]
        assert summary["ranks"] == len(record.run.stats)
        assert summary["makespan"] == pytest.approx(record.run.makespan)

    def test_summary_payload_rehydrates_and_records(
        self, ge2_cluster, tmp_path, monkeypatch
    ):
        from repro.experiments import executor

        monkeypatch.setattr(executor, "RANK_SUMMARY_THRESHOLD", 1)
        record = run_app("ge", ge2_cluster, 80)
        payload = json.loads(json.dumps(run_record_to_payload(record)))
        loaded = run_record_from_payload(payload)
        # Per-rank lists are gone, but the headline metrics survive.
        assert list(loaded.run.stats) == []
        assert loaded.run.makespan == pytest.approx(record.run.makespan)
        assert loaded.run.events == record.run.events
        assert loaded.measurement == record.measurement
        # The ledger accepts a summary-only record (reuses its block).
        ledger = RunLedger(tmp_path / "ledger")
        run_id = ledger.record_run("ge", ge2_cluster, loaded)
        stored = ledger.load(run_id)
        assert stored["rank_summary"] == loaded.run.rank_summary


class TestWorkerCacheWrites:
    """On the pool path the worker that ran a point writes its entry."""

    @staticmethod
    def count_parent_puts(monkeypatch):
        """Record every ``RunCache.put`` made in this process.  A forked
        worker inherits the patch, but its appends land in its own copy
        of the list, so the list only ever holds the parent's calls."""
        calls = []
        put = RunCache.put

        def counting(self, key, *args, **kwargs):
            calls.append(key)
            return put(self, key, *args, **kwargs)

        monkeypatch.setattr(RunCache, "put", counting)
        return calls

    def test_cold_pool_sweep_leaves_every_entry_on_disk(
        self, ge2_cluster, tmp_path, monkeypatch
    ):
        calls = self.count_parent_puts(monkeypatch)
        cache = fresh_cache(tmp_path)
        points = [SweepPoint.make("ge", ge2_cluster, n) for n in (60, 70, 80)]
        out = SweepExecutor(jobs=2, cache=cache).run_points(points)
        assert calls == []
        # Workers wrote every entry, one compact line each, into their
        # own segments: none is named by the parent's pid.
        written = {}
        for segment in segments(cache.root):
            assert not segment.name.startswith(f"{os.getpid()}-")
            written.update(dict.fromkeys(entry_keys(segment), segment))
        keys = [point_profile_hash(point) for point in points]
        assert sorted(written) == sorted(keys)
        reader = RunCache(cache.root)
        for key, point, record in zip(keys, points, out):
            stored = run_record_from_payload(reader.get(key), point.marked())
            assert record_signature(stored) == record_signature(record)
            assert stored.run.wall_seconds == record.run.wall_seconds
        # The serial path still writes in-process, through the same put.
        SweepExecutor(cache=fresh_cache(tmp_path / "serial")).run_points(
            points
        )
        assert len(calls) == len(points)

    def test_failed_worker_write_still_returns_record(
        self, ge2_cluster, tmp_path, capsys
    ):
        # A cache root that is a regular file: creating it as a
        # directory raises FileExistsError, an OSError, in every writer.
        root = tmp_path / "not-a-dir"
        root.write_text("")
        points = [SweepPoint.make("ge", ge2_cluster, n) for n in (60, 70, 80)]
        exe = SweepExecutor(jobs=2, cache=RunCache(root))
        out = exe.run_points(points)
        serial = SweepExecutor().run_points(points)
        assert [record_signature(r) for r in out] == [
            record_signature(r) for r in serial
        ]
        assert root.read_text() == ""
        # Three failed worker writes, one warning naming the cache.
        assert capsys.readouterr().err.splitlines() == [
            f"warning: sweep.cache_write_failed cache={root}"
        ]
        # The serial path warns about its failed writes the same way.
        SweepExecutor(cache=RunCache(root)).run_points(points[:2])
        assert capsys.readouterr().err.splitlines() == [
            f"warning: sweep.cache_write_failed cache={root}"
        ]

    def test_cache_write_warning_is_once_per_executor(
        self, ge2_cluster, tmp_path, capsys
    ):
        root = tmp_path / "not-a-dir"
        root.write_text("")
        exe = SweepExecutor(cache=RunCache(root))
        exe.run_points([SweepPoint.make("ge", ge2_cluster, 60)])
        assert "sweep.cache_write_failed" in capsys.readouterr().err
        exe.run_points([SweepPoint.make("ge", ge2_cluster, 70)])
        assert capsys.readouterr().err == ""

    def test_telemetry_ledger_failure_warns_once(
        self, ge2_cluster, tmp_path, capsys, monkeypatch
    ):
        def unwritable(*args, **kwargs):
            raise OSError("disk full")

        ledger = RunLedger(tmp_path / "ledger")
        monkeypatch.setattr(ledger, "record_sweep", unwritable)
        exe = SweepExecutor(cache=fresh_cache(tmp_path), telemetry=True)
        with ledger_recording(ledger):
            exe.run_points([SweepPoint.make("ge", ge2_cluster, 60)])
            assert capsys.readouterr().err.splitlines() == [
                "warning: sweep.telemetry_ledger_failed "
                f"ledger={ledger.root} error=disk full"
            ]
            exe.run_points([SweepPoint.make("ge", ge2_cluster, 70)])
            assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("managed", [True, False])
    def test_point_ledger_failure_warns_once(
        self, ge2_cluster, tmp_path, capsys, managed
    ):
        # A ledger root that is a regular file: making its runs/ directory
        # raises NotADirectoryError, an OSError.
        root = tmp_path / "not-a-dir"
        root.write_text("")
        ledger = RunLedger(root)
        exe = (SweepExecutor(jobs=2, cache=fresh_cache(tmp_path)) if managed
               else SweepExecutor())
        points = [SweepPoint.make("ge", ge2_cluster, n) for n in (60, 70, 80)]
        with ledger_recording(ledger):
            out = exe.run_points(points)
            (err,) = capsys.readouterr().err.splitlines()
            assert err.startswith(
                f"warning: sweep.ledger_write_failed ledger={root} error="
            )
            exe.run_points(points[:1])
            assert capsys.readouterr().err == ""
        assert [record_signature(r) for r in out] == [
            record_signature(r) for r in SweepExecutor().run_points(points)
        ]
        assert root.read_text() == ""

    def test_old_per_file_entry_is_miss_not_error(
        self, ge2_cluster, tmp_path
    ):
        """Entries of the one-file-per-entry layout are never read."""
        from repro.experiments.persistence import write_json_document
        from repro.experiments.runcache import CACHE_KIND

        cache = fresh_cache(tmp_path)
        point = SweepPoint.make("ge", ge2_cluster, 80)
        record = run_app("ge", ge2_cluster, 80)
        key = point_profile_hash(point)
        write_json_document(cache.root / key[:2] / f"{key}.json", CACHE_KIND,
                            {"result": run_record_to_payload(record)})
        exe = SweepExecutor(cache=cache)
        (rerun,) = exe.run_points([point])
        assert exe.cache_stats() == {"hits": 0, "misses": 1}
        assert record_signature(rerun) == record_signature(record)
        exe2 = SweepExecutor(cache=cache)
        exe2.run_points([point])
        assert exe2.cache_stats() == {"hits": 1, "misses": 0}

    def test_shared_specs_are_hashed_once_per_instance(
        self, ge2_cluster, tmp_path, monkeypatch
    ):
        """Probe, spec publication and task encoding all key a point's
        cluster and schedule; each instance is hashed only once."""
        import dataclasses

        from repro.faults.schedule import FaultSchedule
        from repro.obs import ledger

        digests = []
        digest = ledger._cluster_digest
        monkeypatch.setattr(ledger, "_cluster_digest",
                            lambda c: digests.append(c) or digest(c))
        payloads = []
        to_payload = FaultSchedule.to_payload
        monkeypatch.setattr(FaultSchedule, "to_payload",
                            lambda s: payloads.append(s) or to_payload(s))
        cluster = dataclasses.replace(ge2_cluster)  # a fresh, unhashed copy
        schedule = uniform_slowdown(cluster.nranks, 0.3)
        points = [SweepPoint.make("ge", cluster, n, schedule=schedule)
                  for n in (60, 70, 80, 90)]
        SweepExecutor(jobs=2, cache=fresh_cache(tmp_path)).run_faulted(points)
        assert len(digests) == 1
        assert len(payloads) == 1


def _write_entries(root, tag, count, barrier):
    """A writer process: append ``count`` entries once both writers are up."""
    cache = RunCache(root)
    barrier.wait(timeout=60)
    for i in range(count):
        cache.put(f"{tag}{i:063d}", {"i": i, "pad": "x" * 512})


class TestSegments:
    """Per-writer append-only segments: concurrency, torn lines and the
    life cycle of a writer's handle (fork, deleted root, reused pid)."""

    def test_two_concurrent_writers_every_entry_hits(self, tmp_path):
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        root = tmp_path / "cache"
        writers = [ctx.Process(target=_write_entries,
                               args=(str(root), tag, 300, barrier))
                   for tag in "ab"]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=120)
            assert writer.exitcode == 0
        assert len(segments(root)) == 2
        reader = RunCache(root)
        assert len(reader) == 600
        for tag in "ab":
            for i in range(300):
                assert reader.get(f"{tag}{i:063d}") == {"i": i,
                                                        "pad": "x" * 512}

    def test_torn_final_line_is_miss_and_later_appends_read(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        a, b, c = ("a" * 64, "b" * 64, "c" * 64)
        line_b = b.encode() + b'\t{"v":"b"}\n'
        dead = root / f"1-dead{SEGMENT_SUFFIX}"  # a writer died mid-line
        dead.write_bytes(SEGMENT_HEADER + a.encode() + b'\t{"v":"a"}\n'
                         + line_b[:-1])
        reader = RunCache(root)
        assert reader.get(a) == {"v": "a"}
        assert reader.get(b) is None
        RunCache(root).put(c, {"v": "c"})  # another writer's segment
        reader.refresh()
        assert reader.get(c) == {"v": "c"}
        assert reader.get(b) is None
        assert RunCache(root).get(c) == {"v": "c"}
        # A tail still being written is read again once it is complete.
        with open(dead, "ab") as f:
            f.write(b"\n")
        reader.refresh()
        assert reader.get(b) == {"v": "b"}

    def test_killed_worker_keeps_its_finished_entries(
        self, ge2_cluster, tmp_path, monkeypatch
    ):
        import signal
        from concurrent.futures.process import BrokenProcessPool

        from repro.experiments import runcache
        from repro.experiments.pool import shutdown_worker_pools

        parent = os.getpid()
        append = runcache._Segment.append
        appends = []  # one list per forked worker

        def dying_append(self, data):
            # A worker's second entry (after header and first entry):
            # write half its line, then die.
            appends.append(data)
            if os.getpid() != parent and len(appends) > 2:
                os.write(self.fd, data[:len(data) // 2])
                os.kill(os.getpid(), signal.SIGKILL)
            return append(self, data)

        cache = fresh_cache(tmp_path)
        points = [SweepPoint.make("ge", ge2_cluster, n)
                  for n in range(40, 100, 6)]
        shutdown_worker_pools()  # the next pool forks with the patch
        monkeypatch.setattr(runcache._Segment, "append", dying_append)
        try:
            with pytest.raises(BrokenProcessPool):
                SweepExecutor(jobs=2, cache=cache).run_points(points)
        finally:
            shutdown_worker_pools()
            monkeypatch.undo()
        torn = [s for s in segments(cache.root)
                if not s.read_bytes().endswith(b"\n")]
        assert torn and all(entry_keys(s) for s in torn)
        finished = [k for s in segments(cache.root) for k in entry_keys(s)]
        reader = RunCache(cache.root)
        assert all(reader.get(k) is not None for k in finished)
        for segment in torn:
            tail = segment.read_bytes().rsplit(b"\n", 1)[1]
            assert reader.get(tail.split(b"\t", 1)[0].decode()) is None
        # A rerun replays what finished and refills the rest.
        exe = SweepExecutor(jobs=2, cache=cache)
        out = exe.run_points(points)
        assert exe.cache_stats() == {"hits": len(finished),
                                     "misses": len(points) - len(finished)}
        assert [record_signature(r) for r in out] == [
            record_signature(r) for r in SweepExecutor().run_points(points)]

    def test_serial_then_pool_sweep_on_one_root(self, ge2_cluster, tmp_path):
        """Forked workers never append through the parent's inherited
        segment handle; each opens its own."""
        from repro.experiments.pool import shutdown_worker_pools

        cache = fresh_cache(tmp_path)
        first = [SweepPoint.make("ge", ge2_cluster, n) for n in (60, 70)]
        more = [SweepPoint.make("ge", ge2_cluster, n) for n in (80, 90, 100)]
        SweepExecutor(cache=cache).run_points(first)
        (own,) = segments(cache.root)
        assert own.name.startswith(f"{os.getpid()}-")
        shutdown_worker_pools()  # fork the pool with the segment open
        exe = SweepExecutor(jobs=2, cache=cache)
        out = exe.run_points(first + more)
        assert exe.cache_stats() == {"hits": 2, "misses": 3}
        assert entry_keys(own) == [point_profile_hash(p) for p in first]
        assert len(segments(cache.root)) > 1
        replay = SweepExecutor(jobs=2, cache=RunCache(cache.root))
        assert [record_signature(r)
                for r in replay.run_points(first + more)] == [
            record_signature(r) for r in out]
        assert replay.cache_stats() == {"hits": 5, "misses": 0}
        # ... and the parent keeps appending to its own segment.
        SweepExecutor(cache=cache).run_points(
            [SweepPoint.make("ge", ge2_cluster, 110)])
        assert len(entry_keys(own)) == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_deleted_root_refills_in_the_new_directory(
        self, ge2_cluster, tmp_path, jobs
    ):
        import shutil

        cache = fresh_cache(tmp_path)
        points = [SweepPoint.make("ge", ge2_cluster, n) for n in (60, 70, 80)]
        SweepExecutor(jobs=jobs, cache=cache).run_points(points)
        shutil.rmtree(cache.root)  # pool workers keep their handles
        exe = SweepExecutor(jobs=jobs, cache=cache)
        exe.run_points(points)
        assert exe.cache_stats() == {"hits": 0, "misses": 3}
        assert sum(len(entry_keys(s)) for s in segments(cache.root)) == 3
        for reader in (cache, RunCache(cache.root)):
            exe = SweepExecutor(jobs=jobs, cache=reader)
            exe.run_points(points)
            assert exe.cache_stats() == {"hits": 3, "misses": 0}

    def test_handles_do_not_pile_up_per_deleted_root(self, tmp_path):
        import shutil
        from pathlib import Path

        fd_dir = Path("/proc/self/fd")
        if not fd_dir.is_dir():
            pytest.skip("needs /proc/self/fd")

        def open_segments():
            targets = []
            for fd in os.listdir(fd_dir):
                try:
                    targets.append(os.readlink(fd_dir / fd))
                except OSError:
                    continue
            return [t for t in targets if SEGMENT_SUFFIX in t]

        for i in range(5):
            root = tmp_path / f"cache{i}"
            RunCache(root).put("ab" * 32, {"i": i})
            shutil.rmtree(root)
        assert len(open_segments()) <= 1

    def test_reused_pid_never_extends_an_old_segment(self, tmp_path):
        from repro.experiments import runcache

        root = tmp_path / "cache"
        root.mkdir()
        a, b, c = ("a" * 64, "b" * 64, "c" * 64)
        torn = (SEGMENT_HEADER + a.encode() + b'\t{"v":"a"}\n'
                + b.encode() + b'\t{"v":"b"}')
        # What an earlier process with this pid could have left behind.
        olds = [root / f"{os.getpid()}{SEGMENT_SUFFIX}",
                root / f"{os.getpid()}-0{SEGMENT_SUFFIX}"]
        for old in olds:
            old.write_bytes(torn)
        runcache._close_segment()  # as in a fresh process
        RunCache(root).put(c, {"v": "c"})
        assert [old.read_bytes() for old in olds] == [torn, torn]
        reader = RunCache(root)
        assert reader.get(a) == {"v": "a"}
        assert reader.get(b) is None
        assert reader.get(c) == {"v": "c"}


class TestStatsPayload:
    """``run_record_to_payload`` reads per-rank stats from the columns."""

    @staticmethod
    def golden_runs():
        from repro.faults import make_fault_launcher
        from tests.sim.test_bit_identity import _SCHEDULE, CASES

        for case_id, app, cluster_factory, n, faulted in CASES:
            kwargs = {}
            if faulted:
                kwargs["launcher"] = make_fault_launcher(_SCHEDULE)
            yield case_id, run_app(app, cluster_factory(), n, **kwargs)

    def test_equals_asdict_payload_for_every_golden_run(self):
        from dataclasses import asdict

        from repro.sim.trace import RankStatsArray

        for case_id, record in self.golden_runs():
            assert isinstance(record.run.stats, RankStatsArray), case_id
            stats = run_record_to_payload(record)["run"]["stats"]
            assert stats == [asdict(s) for s in record.run.stats], case_id
            # Same key order and value types, so the encoded entry too.
            assert json.dumps(stats) == json.dumps(
                [asdict(s) for s in record.run.stats]
            ), case_id

    def test_accepts_rehydrated_rank_stats_lists(self):
        for case_id, record in self.golden_runs():
            payload = run_record_to_payload(record)
            loaded = run_record_from_payload(payload)
            assert isinstance(loaded.run.stats, list), case_id
            assert run_record_to_payload(loaded) == payload, case_id
