"""Persistent warm worker pool: reuse, spec interning, fork/spawn safety.

The load-bearing contracts of the persistent pool: one pool survives
across batches, sweeps and bisection probes (spawned once, reused
everywhere); the pool is transport only, so serial == cold-pool ==
warm-pool == cached results bit for bit; spec interning hits on
repeated cluster/schedule hashes; and spawn attribution survives the
``spawn`` start method.
"""

from __future__ import annotations

import pytest

from repro.experiments import pool as pool_module
from repro.experiments.executor import (
    BisectionPrefetcher,
    RunCache,
    SweepExecutor,
    SweepPoint,
)
from repro.experiments.pool import (
    WorkerPool,
    _reset_spec_cache,
    publish_spec,
    resolve_spec,
    shared_pool,
    spec_cache_stats,
    spec_key,
)
from repro.experiments.runner import collect_traces
from repro.faults.schedule import uniform_slowdown

from .test_executor import record_signature

SIZES = (60, 90, 120)


def fresh_cache(tmp_path, name="cache"):
    return RunCache(tmp_path / name)


def points_for(cluster, sizes=SIZES, schedule=None):
    return [SweepPoint.make("ge", cluster, n, schedule=schedule)
            for n in sizes]


class TestPoolReuse:
    def test_two_sweeps_share_one_pool_bit_identically(
        self, ge2_cluster, tmp_path, cold_pool
    ):
        """serial == cold-pool == warm-pool == cached, across two
        consecutive sweeps sharing one persistent pool: exactly one
        cold spawn (the first sweep), none on the second."""
        points = points_for(ge2_cluster)
        serial = [record_signature(r)
                  for r in SweepExecutor().run_points(points)]

        exe = SweepExecutor(jobs=2, cache=fresh_cache(tmp_path, "a"),
                            telemetry=True)
        first = [record_signature(r) for r in exe.run_points(points)]
        spawns_after_first = exe.pool.spawns

        # The first sweep started cold: one parent spawn span.
        t1 = exe.timeline
        assert len([s for s in t1.parent.spans if s.name == "spawn"]) == 1
        assert t1.pool_spawns == 1
        assert t1.pool_reuse is False

        exe2 = SweepExecutor(jobs=2, cache=fresh_cache(tmp_path, "b"),
                             telemetry=True)
        second = [record_signature(r) for r in exe2.run_points(points)]

        # Same shared pool object, not respawned for the second sweep.
        assert exe2.pool is exe.pool
        assert exe2.pool.spawns == spawns_after_first
        assert exe2.timeline.pool_reuse is True
        assert exe2.timeline.pool_spawns == 0
        assert exe2.timeline.phase_counts()["spawn"] == 0
        assert not [s for s in exe2.timeline.parent.spans
                    if s.name == "spawn"]
        assert shared_pool(2).spawns == 1

        cached = [record_signature(r) for r in SweepExecutor(
            jobs=2, cache=RunCache(tmp_path / "a"),
        ).run_points(points)]

        assert serial == first == second == cached

    def test_prefetcher_probe_batches_reuse_the_pool(
        self, ge2_cluster, tmp_path
    ):
        """Bracket doubling + bisection issues many probe batches; the
        whole search must pay at most one pool spawn."""
        exe = SweepExecutor(jobs=2, cache=fresh_cache(tmp_path))
        prefetcher = BisectionPrefetcher(exe, "ge", ge2_cluster)
        prefetcher.warm(0.45, lower=2)
        assert len(prefetcher.memo) > 2  # several batches actually ran
        assert exe.pool is not None
        assert exe.pool.spawns <= 1

    def test_faulted_sweep_through_warm_pool_is_identical(
        self, ge2_cluster, tmp_path
    ):
        schedule = uniform_slowdown(ge2_cluster.nranks, 0.5)
        points = points_for(ge2_cluster, schedule=schedule)
        serial = SweepExecutor().run_faulted(points)
        pooled = SweepExecutor(
            jobs=2, cache=fresh_cache(tmp_path)
        ).run_faulted(points)
        for (rec_s, inj_s), (rec_p, inj_p) in zip(serial, pooled):
            assert record_signature(rec_s) == record_signature(rec_p)
            assert inj_s.downtime == inj_p.downtime
            assert len(inj_s.events) == len(inj_p.events)


class TestSpecInterning:
    def test_repeated_hashes_hit_the_cache(self, ge2_cluster):
        _reset_spec_cache()
        try:
            key = spec_key(ge2_cluster)
            assert key is not None and key.startswith("cluster:")
            publish_spec(key, ge2_cluster)
            before = spec_cache_stats()
            assert resolve_spec((key, None)) is ge2_cluster
            assert resolve_spec((key, None)) is ge2_cluster
            after = spec_cache_stats()
            assert after["hits"] - before["hits"] == 2
            assert after["misses"] == before["misses"]
        finally:
            _reset_spec_cache()

    def test_inline_payload_interned_on_first_miss(self, ge2_cluster):
        _reset_spec_cache()
        try:
            key = spec_key(ge2_cluster)
            assert resolve_spec((key, ge2_cluster)) is ge2_cluster
            assert spec_cache_stats()["misses"] == 1
            # Second reference by hash alone now hits.
            assert resolve_spec((key, None)) is ge2_cluster
            assert spec_cache_stats()["hits"] == 1
        finally:
            _reset_spec_cache()

    def test_unknown_hash_without_payload_raises(self):
        _reset_spec_cache()
        try:
            with pytest.raises(KeyError):
                resolve_spec(("cluster:deadbeef", None))
        finally:
            _reset_spec_cache()

    def test_schedule_keys_on_profile_hash(self, ge2_cluster):
        schedule = uniform_slowdown(ge2_cluster.nranks, 0.5)
        key = spec_key(schedule)
        assert key == f"schedule:{schedule.profile_hash()}"
        assert spec_key(None) is None
        assert spec_key(object()) is None

    def test_pool_encodes_published_specs_as_hash_only(self, ge2_cluster):
        _reset_spec_cache()
        try:
            key = spec_key(ge2_cluster)
            publish_spec(key, ge2_cluster)
            pool = WorkerPool(1)
            pool.ensure()
            try:
                # Published before spawn: ships as (key, None).
                assert pool.encode_spec(ge2_cluster) == (key, None)
            finally:
                pool.shutdown()
        finally:
            _reset_spec_cache()


class TestSpawnStartMethod:
    def test_spawn_method_stamps_spawn_spans(
        self, ge2_cluster, tmp_path, monkeypatch
    ):
        """The non-fork path must still attribute worker spawn latency:
        created_at and the spec snapshot travel via initargs."""
        spawn_pool = WorkerPool(2, start_method="spawn")
        monkeypatch.setitem(pool_module._POOLS, 2, spawn_pool)
        exe = SweepExecutor(
            jobs=2, cache=fresh_cache(tmp_path), telemetry=True
        )
        try:
            serial = [record_signature(r)
                      for r in SweepExecutor().run_points(
                          points_for(ge2_cluster))]
            pooled = [record_signature(r)
                      for r in exe.run_points(points_for(ge2_cluster))]
            assert serial == pooled
            assert exe.pool is spawn_pool
            timeline = exe.timeline
            assert timeline.pool_spawns == 1
            spawn_spans = [s for s in timeline.worker_spans
                           if s.name == "spawn"]
            # A worker ships its spans with its first result, so only
            # workers that actually ran a task report one -- at least
            # one of the two must have (slow spawn startup can let one
            # worker drain the whole batch).
            assert 1 <= len(spawn_spans) <= 2
            assert all(s.duration > 0 for s in spawn_spans)
        finally:
            spawn_pool.shutdown()


class TestFairnessGuards:
    def test_broken_pool_is_dropped_and_respawns(self):
        pool = WorkerPool(1)
        pool.ensure()
        first_pid = next(iter(pool.map(_worker_pid, [0])))
        assert first_pid != 0
        # Simulate breakage: kill the executor behind the pool's back.
        pool._pool.shutdown(wait=True)
        pool._pool = None
        assert pool.needs_spawn()
        assert pool.ensure() is True
        pool.shutdown()

    def test_shared_pool_is_per_worker_count(self):
        a = shared_pool(2)
        b = shared_pool(3)
        assert a is not b
        assert shared_pool(2) is a
        assert a.workers == 2 and b.workers == 3

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            WorkerPool(0)


class TestTraceSerialWarning:
    def test_warn_once_under_active_collector(self, ge2_cluster, tmp_path,
                                              capsys):
        """A --jobs sweep under an active TraceCollector silently went
        serial; now it says so, exactly once."""
        exe = SweepExecutor(jobs=2, cache=fresh_cache(tmp_path))
        with collect_traces():
            exe.run_points(points_for(ge2_cluster))
            exe.run_points(points_for(ge2_cluster, sizes=(70, 100, 130)))
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(
            "warning: sweep.trace_serial_fallback jobs=2 points=3 "
        )
        assert "TraceCollector" in line

    def test_no_warning_without_collector(self, ge2_cluster, tmp_path,
                                          capsys):
        exe = SweepExecutor(jobs=2, cache=fresh_cache(tmp_path))
        exe.run_points(points_for(ge2_cluster))
        assert capsys.readouterr().err == ""


def _worker_pid(_: int) -> int:
    import os

    return os.getpid()
