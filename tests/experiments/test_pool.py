"""Persistent warm worker pool: reuse and fork/spawn safety.

The load-bearing contracts of the persistent pool: one pool survives
across batches and sweeps (spawned once, reused everywhere); the pool
is transport only, so serial == cold-pool == warm-pool == cached
results bit for bit; and spawn attribution survives the ``spawn``
start method.
"""

from __future__ import annotations

import pytest

from repro.experiments import pool as pool_module
from repro.experiments.executor import RunCache, SweepExecutor, SweepPoint
from repro.experiments.pool import WorkerPool, shared_pool
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


class TestSpawnStartMethod:
    def test_spawn_method_stamps_spawn_spans(
        self, ge2_cluster, tmp_path, monkeypatch
    ):
        """The non-fork path must still attribute worker spawn latency:
        created_at travels via initargs."""
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
