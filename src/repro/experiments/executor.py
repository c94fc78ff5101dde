"""Parallel sweep execution with a persistent content-addressed run cache.

Scalability studies (efficiency curves, required-size bisections, fault
sweeps) sample many independent ``(app, cluster, N)`` simulation points.
:class:`SweepExecutor` removes the two dominant costs of that regime:

* **Parallelism** -- independent points fan out over the process-wide
  :func:`~repro.experiments.pool.shared_pool` (``jobs=``; the default of
  1 executes in-process).  The pool is spawned once per process and
  reused by every batch and sweep; tasks carry their points and are
  dispatched in adaptive chunks (see :mod:`repro.experiments.pool`).
  A batch of one point -- each probe of a required-size bisection,
  whose next probe depends on this one's efficiency -- runs
  in-process.
* **Caching** -- a persistent :class:`~repro.experiments.runcache.RunCache`
  under ``.repro/cache/`` stores finished runs keyed by a deterministic
  profile hash (app, N, cluster spec hash, run kwargs such as the
  :class:`~repro.mpi.communicator.CollectiveConfig`, the fault
  schedule's ``profile_hash`` and the library version), so repeated
  curves, bisections and CI smoke runs are near-free.  Each writing
  process appends compact JSON lines to one segment file of its own,
  opened once.  The parent computes every key and refreshes the cache
  index once per probe pass; the process that ran a point writes its
  entry -- the pool worker for parallel points (the task carries the
  cache root and key, and a failed write comes back with the result),
  the parent for in-process ones.  The parent's serial share of a cold
  parallel sweep is then the probe and the collection.

Determinism is the contract: the simulator is deterministic, floats
survive both the pickle transport from workers and the JSON round-trip
through the cache exactly (``repr`` round-trips IEEE-754 doubles), so a
parallel cache-cold sweep is bit-identical to the serial one for every
measurement, per-rank statistic and derived ψ (test-enforced).  Only
``wall_seconds`` is wall-clock dependent; cached records replay the value
stored at record time.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields
from typing import Any, Iterator, Sequence

from ..core.marked_speed import SystemMarkedSpeed
from ..machine.cluster import ClusterSpec
from ..mpi.communicator import CollectiveConfig
from ..obs.spans import Span, wall_now
from ..obs.streaming import summarize_rank_stats, warn
from ..obs.telemetry import BUSY_PHASES, ROOT_SPAN, SweepTimeline
from ..sim.engine import RunResult
from ..sim.trace import RankStats, RankStatsArray
from . import runner as _runner
from .pool import WorkerPool, shared_pool
from .persistence import measurement_from_dict, measurement_to_dict
from .runcache import CACHE_PROFILE_VERSION, RunCache, append_entry
from .runner import RunRecord, resolve_app, run_app

#: Run kwargs that are per-call side-effect channels, not part of the
#: simulated outcome.  A point carrying any of these executes in-process
#: and bypasses the cache (a cached run cannot feed a tracer, and a
#: flight recorder's ring must live in the caller's process).
SIDE_EFFECT_KWARGS = frozenset({"tracer", "launcher", "flight"})

#: Above this rank count a serialized run drops its O(ranks) per-rank
#: lists (``stats``/``finish_times``) and carries its exact
#: ``rank_summary`` block instead.
RANK_SUMMARY_THRESHOLD = 4096


class _Uncacheable(Exception):
    """A kwarg value has no canonical JSON form; the point cannot be keyed."""


# -- sweep points -------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation of a sweep: ``run_app`` arguments as data.

    ``kwargs`` holds the run keywords that determine the outcome (sorted
    tuple of pairs, so points are picklable and comparable); ``local``
    holds side-effect keywords (tracer/launcher/flight) that force
    in-process, uncached execution.  ``schedule`` is an optional
    :class:`~repro.faults.schedule.FaultSchedule` to inject.
    """

    app: str
    cluster: ClusterSpec
    n: int
    kwargs: tuple[tuple[str, Any], ...] = ()
    local: tuple[tuple[str, Any], ...] = ()
    schedule: Any = None

    @staticmethod
    def make(
        app: str,
        cluster: ClusterSpec,
        n: int,
        schedule: Any = None,
        **run_kwargs: Any,
    ) -> "SweepPoint":
        """Build a point from ``run_app``-style keywords."""
        local = tuple(sorted(
            ((k, v) for k, v in run_kwargs.items()
             if k in SIDE_EFFECT_KWARGS and v is not None),
            key=lambda kv: kv[0],
        ))
        kwargs = tuple(sorted(
            ((k, v) for k, v in run_kwargs.items()
             if k not in SIDE_EFFECT_KWARGS),
            key=lambda kv: kv[0],
        ))
        return SweepPoint(
            app=resolve_app(app), cluster=cluster, n=int(n),
            kwargs=kwargs, local=local, schedule=schedule,
        )

    def run_kwargs(self) -> dict[str, Any]:
        out = dict(self.kwargs)
        out.update(self.local)
        return out

    def marked(self) -> SystemMarkedSpeed:
        """The marked speed the point is simulated at: its ``marked``
        keyword, else the cluster's (the default ``run_app`` applies)."""
        return _runner.marked_speed_of(self.cluster,
                                       dict(self.kwargs).get("marked"))


def _canonical_value(value: Any) -> Any:
    """JSON-stable form of a run kwarg for the profile hash."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return repr(value)  # repr round-trips doubles; json floats match
    if isinstance(value, SystemMarkedSpeed):
        return {"marked_speeds": [repr(s) for s in value.speeds]}
    if isinstance(value, CollectiveConfig):
        return {"collectives": {"bcast": value.bcast,
                                "barrier": value.barrier}}
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    raise _Uncacheable(f"no canonical form for {type(value).__name__}")


def point_profile_hash(point: SweepPoint) -> str | None:
    """Deterministic content hash of everything that decides the outcome.

    Covers the application, problem size, full cluster spec hash, the
    canonicalized run kwargs (collective algorithms, marked speed, seed,
    compute efficiency, ...), the fault schedule's ``profile_hash`` and
    the library version.  Returns ``None`` when the point carries
    side-effect kwargs or values without a canonical form -- such points
    are never cached.
    """
    from .. import __version__
    from ..obs.ledger import cluster_spec_hash

    if point.local:
        return None
    try:
        kwargs = {k: _canonical_value(v) for k, v in point.kwargs}
    except _Uncacheable:
        return None
    payload = {
        "profile_version": CACHE_PROFILE_VERSION,
        "app": point.app,
        "n": point.n,
        "cluster": cluster_spec_hash(point.cluster),
        "kwargs": kwargs,
        "schedule": (point.schedule.profile_hash()
                     if point.schedule is not None else None),
        "repro_version": __version__,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# -- record (de)serialization -------------------------------------------------

#: Per-rank ``stats`` keys, in :class:`~repro.sim.trace.RankStats` field
#: order; every one but ``rank`` names a :class:`RankStatsArray` column.
_STATS_FIELDS = tuple(f.name for f in fields(RankStats))


def _stats_payload(stats: Any) -> list[dict[str, Any]]:
    """Per-rank ``stats`` dicts, equal to ``asdict`` of each rank's view.

    An engine-produced :class:`RankStatsArray` is read column by column,
    with no per-rank dataclass view; a plain list of rehydrated
    :class:`RankStats` is read attribute by attribute.
    """
    if isinstance(stats, RankStatsArray):
        columns = [range(len(stats))]
        columns += [getattr(stats, name) for name in _STATS_FIELDS[1:]]
    else:
        columns = [[getattr(s, name) for s in stats]
                   for name in _STATS_FIELDS]
    return [dict(zip(_STATS_FIELDS, row)) for row in zip(*columns)]


def run_record_to_payload(
    record: RunRecord, injector: Any = None
) -> dict[str, Any]:
    """JSON-ready form of a finished run (tracer and app_result dropped).

    ``injector`` optionally attaches the observed fault state
    (downtime/fail-stop/drops and the fault event list) so a cached
    faulted run rehydrates with its full degraded-metric surface.

    Above :data:`RANK_SUMMARY_THRESHOLD` ranks the payload replaces the
    per-rank ``stats``/``finish_times`` lists with the ``rank_summary``
    block (exact quantiles + top-k outliers), keeping cache entries O(1)
    in rank count; the rehydrated
    :class:`~repro.sim.engine.RunResult` then has empty per-rank lists
    and reports its makespan from the summary.
    """
    run = record.run
    run_block: dict[str, Any]
    if len(run.stats) > RANK_SUMMARY_THRESHOLD:
        run_block = {
            "nranks": len(run.stats),
            "rank_summary": run.rank_summary
            or summarize_rank_stats(run.stats, run.makespan),
        }
    else:
        run_block = {
            "finish_times": list(run.finish_times),
            "stats": _stats_payload(run.stats),
        }
    run_block.update(
        events=run.events,
        undelivered_messages=run.undelivered_messages,
        wall_seconds=run.wall_seconds,
        heap_pushes=run.heap_pushes,
        stale_pops=run.stale_pops,
        heap_pops=run.heap_pops,
    )
    payload: dict[str, Any] = {
        "measurement": measurement_to_dict(record.measurement),
        "compute_efficiency": record.compute_efficiency,
        "run": run_block,
    }
    if injector is not None:
        payload["fault"] = {
            "events": [[e.time, e.rank, e.kind, e.detail]
                       for e in injector.events],
            "downtime": {str(r): s for r, s in injector.downtime.items()},
            "failed_at": {str(r): t for r, t in injector.failed_at.items()},
            "messages_dropped": injector.messages_dropped,
        }
    return payload


def run_record_from_payload(
    payload: dict[str, Any], marked: SystemMarkedSpeed | None = None
) -> RunRecord:
    """Rebuild a :class:`RunRecord` (tracer/app_result are ``None``).

    ``marked`` is the marked speed of the point the payload was run for
    (:meth:`SweepPoint.marked`; the executor always passes it).  The
    cache key covers it, so the payload need not.
    """
    run_data = payload["run"]
    run = RunResult(
        finish_times=[float(t) for t in run_data.get("finish_times", ())],
        stats=[RankStats(**s) for s in run_data.get("stats", ())],
        events=int(run_data["events"]),
        tracer=None,
        return_values=[],
        undelivered_messages=int(run_data.get("undelivered_messages", 0)),
        wall_seconds=float(run_data.get("wall_seconds", 0.0)),
        heap_pushes=int(run_data.get("heap_pushes", 0)),
        stale_pops=int(run_data.get("stale_pops", 0)),
        heap_pops=int(run_data.get("heap_pops", 0)),
        rank_summary=run_data.get("rank_summary"),
    )
    return RunRecord(
        measurement=measurement_from_dict(payload["measurement"]),
        run=run,
        app_result=None,
        compute_efficiency=float(payload["compute_efficiency"]),
        marked=marked,
    )


def injector_from_payload(schedule: Any, payload: dict[str, Any]) -> Any:
    """Rehydrate a :class:`~repro.faults.injection.FaultInjector`."""
    from ..faults.injection import FaultInjector, FaultTraceEvent

    injector = FaultInjector(schedule)
    injector.events = [
        FaultTraceEvent(float(t), int(r), str(k), str(d))
        for t, r, k, d in payload.get("events", ())
    ]
    injector.downtime = {int(r): float(s)
                         for r, s in payload.get("downtime", {}).items()}
    injector.failed_at = {int(r): float(t)
                          for r, t in payload.get("failed_at", {}).items()}
    injector.messages_dropped = int(payload.get("messages_dropped", 0))
    return injector


# -- worker-side execution ----------------------------------------------------

def _run_point(point: SweepPoint) -> tuple[RunRecord, Any]:
    """Execute one point; returns ``(record, injector-or-None)``."""
    kwargs = point.run_kwargs()
    if point.schedule is None:
        return run_app(point.app, point.cluster, point.n, **kwargs), None
    from ..faults.injection import FaultInjector
    from ..faults.run import make_fault_launcher

    point.schedule.validate_for(point.cluster.nranks)
    injector = FaultInjector(point.schedule)
    record = run_app(
        point.app, point.cluster, point.n,
        launcher=make_fault_launcher(point.schedule, injector),
        **kwargs,
    )
    return record, injector


def _pool_worker(
    task: tuple[SweepPoint, tuple[str, str] | None, float | None],
) -> tuple[dict, list, bool]:
    """Process-pool entry: run a point; returns ``(payload, spans, ok)``.

    ``task`` is the point, its ``(cache root, key)`` or ``None`` when it
    is not cached, and its parent-side submit timestamp, or ``None`` when
    telemetry is off.  With a cache entry the worker appends it to its
    own segment (:func:`~repro.experiments.runcache.append_entry`, the
    handle kept across tasks) before returning; ``ok`` is ``False`` only
    when that write failed (the parent warns).  With a timestamp the worker
    records a ``queue_wait`` span from it (pickle + queue +
    wait-for-free-worker latency), an ``engine_run`` span around the
    simulation, a ``serialize`` span around payload building and a
    ``cache_write`` span around the write, and ships its new spans
    (including, once per worker lifetime, the ``spawn`` span the pool
    initializer recorded) back with the payload.  Ambient observers
    (ledger, trace collector) inherited through fork are suspended --
    the parent executor is the recording authority.
    """
    point, entry, submitted_at = task
    recorder = None
    if submitted_at is not None:
        from ..obs.telemetry import worker_telemetry

        worker = worker_telemetry()
        worker.start_task(submitted_at)
        recorder = worker.recorder
    prev_ledger, _runner._ACTIVE_LEDGER = _runner._ACTIVE_LEDGER, None
    prev_coll, _runner._ACTIVE_COLLECTOR = _runner._ACTIVE_COLLECTOR, None
    try:
        with _span_on(recorder, "engine_run", app=point.app, n=point.n):
            record, injector = _run_point(point)
        with _span_on(recorder, "serialize"):
            payload = run_record_to_payload(record, injector)
    finally:
        _runner._ACTIVE_LEDGER = prev_ledger
        _runner._ACTIVE_COLLECTOR = prev_coll
    ok = True
    if entry is not None:
        root, key = entry
        with _span_on(recorder, "cache_write"):
            try:
                append_entry(root, key, payload)
            except OSError:
                ok = False
    return payload, (worker.drain() if recorder is not None else []), ok


# -- the executor -------------------------------------------------------------

class SweepExecutor:
    """Runs sweep points with optional process parallelism and caching.

    Every configuration runs the same loop.  The default
    ``SweepExecutor()`` (one job, no cache) is its degenerate case: no
    profile hashing, no cache probe, no pool, and ``run_app`` itself
    appends each run to the ambient ledger.  With ``jobs > 1`` or a
    :class:`RunCache` attached (*managed* mode), the executor
    becomes the recording authority: every point is appended to the
    ambient ledger (see :func:`~repro.experiments.runner.ledger_recording`)
    with a ``cache_hit`` extra metric, and hits and misses are counted
    (:meth:`cache_stats`).

    Points carrying side-effect kwargs, and every point while a trace
    collector is active, execute in-process and bypass the cache -- a
    replayed record cannot produce a trace.  (The trace-collector case
    is surfaced with a one-time ``sweep.trace_serial_fallback`` warning
    when ``jobs > 1`` would otherwise suggest parallel execution.)
    A failed cache write or sweep-ledger write is skipped, not raised,
    and likewise warned about once per executor.

    Parallel batches run on the process-global
    :func:`~repro.experiments.pool.shared_pool` for ``jobs`` workers,
    spawned once and reused across batches, sweeps and executors.  A
    batch with one parallelizable point runs it in-process.

    ``telemetry=True`` additionally records cross-process wall-clock
    spans for every phase of the sweep (spawn, queue-wait, cache probe,
    engine run, serialize, cache write, collect); each ``run_faulted``
    call then leaves a fresh :class:`~repro.obs.telemetry.SweepTimeline`
    on :attr:`timeline` and (when an ambient ledger is
    recording) appends one sweep-level ``source="sweep"`` ledger record
    carrying the full telemetry block.  With telemetry off (the
    default) no span machinery runs; with it on, spans only wrap the
    same loop, so results are bit-identical either way.

    ``progress=`` attaches a
    :class:`~repro.obs.streaming.ProgressReporter` (the ``--progress``
    CLI flag): :meth:`run_faulted` calls its ``begin``/``point_done``/
    ``finish`` hooks as points land — cache hits included — and, when
    telemetry is also on, credits worker busy-span seconds so the
    heartbeat can show live worker utilization.  Like telemetry, the
    reporter only observes; results are unchanged.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: RunCache | None = None,
        telemetry: bool = False,
        progress: Any = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.telemetry = bool(telemetry)
        self.progress = progress
        #: The pool used by the most recent parallel batch (tests and
        #: the CLI's profile report read ``pool.spawns`` off it).
        self.pool: WorkerPool | None = None
        #: Events already warned about (each warns once per executor).
        self._warned: set[str] = set()
        self.timeline: SweepTimeline | None = None
        self._setup_spans: list[Span] = []
        #: Managed-mode cache hits and misses over this executor's life.
        self.hits = 0
        self.misses = 0

    # -- bookkeeping -------------------------------------------------------
    def cache_stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}

    @property
    def _managed(self) -> bool:
        """Executor-managed mode: caching/parallelism in play, so the
        executor (not ``run_app``) appends to the ambient ledger."""
        return self.jobs > 1 or self.cache is not None

    def _tick(self, hit: bool = False) -> None:
        """One point landed: advance the progress heartbeat, if any."""
        if self.progress is not None:
            self.progress.point_done(hit=hit)

    # -- telemetry ---------------------------------------------------------
    @contextmanager
    def setup_span(self, name: str, **meta: Any) -> Iterator[None]:
        """Record driver-side preparation work (e.g. the marked-speed
        measurement) into the *next* sweep's timeline.  A no-op when
        telemetry is off."""
        if not self.telemetry:
            yield
            return
        start = wall_now()
        try:
            yield
        finally:
            self._setup_spans.append(Span(
                name=name, start=start, end=wall_now(), pid=os.getpid(),
                worker="parent", meta=meta,
            ))

    def _begin_timeline(self, points: Sequence[SweepPoint]) -> SweepTimeline | None:
        if not self.telemetry:
            return None
        timeline = self.timeline = SweepTimeline(jobs=self.jobs)
        timeline.points = len(points)
        if self._setup_spans:
            timeline.parent.spans.extend(self._setup_spans)
            self._setup_spans = []
        return timeline

    def _record_sweep_ledger(
        self, points: Sequence[SweepPoint], timeline: SweepTimeline
    ) -> None:
        """One sweep-level telemetry record per managed telemetered sweep.

        Called after the sweep root span has closed, so the recorded
        ``telemetry`` block carries the final wall/coverage numbers (and
        this write's own cost stays outside the attributed window).
        """
        ledger = _runner._ACTIVE_LEDGER
        if ledger is None or not points:
            return
        point = points[0]
        try:
            ledger.record_sweep(
                point.app, point.cluster, timeline,
                extra_metrics={
                    "cache_hits": float(timeline.cache_hits),
                    "cache_misses": float(
                        len(points) - timeline.cache_hits
                    ),
                },
            )
        except OSError as exc:
            self._warn_once("sweep.telemetry_ledger_failed",
                            ledger=ledger.root, error=exc)

    # -- execution ---------------------------------------------------------
    def run_points(self, points: Sequence[SweepPoint]) -> list[RunRecord]:
        """Execute points (cache/pool as configured); records in order."""
        return [record for record, _ in self.run_faulted(points)]

    def run_point(self, point: SweepPoint) -> RunRecord:
        return self.run_points([point])[0]

    def run_faulted(
        self, points: Sequence[SweepPoint]
    ) -> list[tuple[RunRecord, Any]]:
        """Like :meth:`run_points` but with each point's fault injector
        (``None`` for fault-free points)."""
        points = list(points)
        timeline = self._begin_timeline(points)
        progress = self.progress
        if progress is not None:
            progress.begin(total=len(points), workers=self.jobs)
        with _maybe_span(timeline, ROOT_SPAN, points=len(points)):
            out = self._run(points, timeline)
        if timeline is not None and self._managed:
            # After the root closed: the recorded document then
            # carries the final wall/coverage numbers.
            self._record_sweep_ledger(points, timeline)
        if progress is not None:
            progress.finish()
        return out

    def _run(
        self, points: list[SweepPoint], timeline: SweepTimeline | None
    ) -> list[tuple[RunRecord, Any]]:
        """The one execution loop: probe, fan out, run the rest, collect.

        Un-managed (serial, uncached) it only runs each point in order:
        nothing is hashed or probed and ``run_app`` keeps recording to
        the ambient ledger itself.
        """
        managed = self._managed
        results: list[tuple[RunRecord, Any] | None] = [None] * len(points)
        flags: list[bool] = [False] * len(points)
        pending: list[int] = []
        parallelizable: list[int] = []
        keys: list[str | None] = []
        collector_active = _runner._ACTIVE_COLLECTOR is not None
        if collector_active and self.jobs > 1 and points:
            self._warn_trace_serial(len(points))
        probe = managed and not collector_active
        refresh = probe and self.cache is not None
        for idx, point in enumerate(points):
            key = None
            cached = None
            if probe:
                # The probe span covers key hashing plus the index lookup;
                # the first also indexes what was appended since the
                # last pass.
                with _maybe_span(timeline, "cache_probe", point=idx):
                    if refresh:
                        self.cache.refresh()
                        refresh = False
                    key = point_profile_hash(point)
                    if key is not None and self.cache is not None:
                        cached = self.cache.get(key)
            keys.append(key)
            if cached is not None:
                point_schedule = point.schedule
                with _maybe_span(timeline, "collect", point=idx):
                    record = run_record_from_payload(cached, point.marked())
                    injector = None
                    if point_schedule is not None and "fault" in cached:
                        injector = injector_from_payload(
                            point_schedule, cached["fault"]
                        )
                results[idx] = (record, injector)
                flags[idx] = True
                self._tick(hit=True)
                continue
            pending.append(idx)
            if key is not None and not point.local:
                parallelizable.append(idx)

        executed: set[int] = set()
        if self.jobs > 1 and len(parallelizable) > 1:
            payloads = self._run_pool(
                [points[i] for i in parallelizable],
                [keys[i] for i in parallelizable], timeline,
            )
            for idx, payload in zip(parallelizable, payloads):
                with _maybe_span(timeline, "collect", point=idx):
                    record = run_record_from_payload(payload,
                                                     points[idx].marked())
                    injector = None
                    if points[idx].schedule is not None:
                        injector = injector_from_payload(
                            points[idx].schedule, payload.get("fault", {})
                        )
                results[idx] = (record, injector)
            executed = set(parallelizable)

        for idx in pending:
            if idx in executed:
                continue
            point = points[idx]
            with _suspended_ledger() if managed else _NOOP:
                with _maybe_span(
                    timeline, "engine_run", point=idx, app=point.app,
                    n=point.n,
                ):
                    record, injector = _run_point(point)
            results[idx] = (record, injector)
            self._tick()
            if keys[idx] is not None and self.cache is not None:
                with _maybe_span(timeline, "serialize", point=idx):
                    payload = run_record_to_payload(record, injector)
                with _maybe_span(timeline, "cache_write", point=idx):
                    try:
                        self.cache.put(keys[idx], payload)
                    except OSError:
                        self._write_failed()

        if not managed:
            return results
        hits = sum(flags)
        self.hits += hits
        self.misses += len(points) - hits
        for idx, point in enumerate(points):
            with _maybe_span(timeline, "collect", point=idx):
                _runner._record_in_ledger(
                    point.app, point.cluster, results[idx][0],
                    extra_metrics={"cache_hit": float(flags[idx])},
                )
        if timeline is not None:
            timeline.cache_hits = hits
        return results

    def _run_pool(
        self, batch: list[SweepPoint], keys: list[str],
        timeline: SweepTimeline | None,
    ) -> list[dict[str, Any]]:
        """Fan a batch out over the shared warm pool; payloads in order.

        With a cache attached each task carries its point's key and the
        worker writes the entry; a write the worker reports failed is
        warned about here.  With telemetry, submits are timestamped, shipped
        worker spans collected, and a parent ``collect`` span covers the
        last result's trip back from its worker.  A cold batch records a
        parent ``spawn`` span around the pool handle creation (workers
        fork lazily at first submit; their real startup cost arrives as
        worker-side ``spawn`` spans stamped from the pool-creation
        timestamp).  A warm batch records *no* spawn span and sets :attr:`SweepTimeline.pool_reuse` -- and
        spawn spans a long-lived worker already shipped to an earlier
        batch are filtered by the batch epoch so reuse is visible in the
        phase table, not double-counted.
        """
        pool = self.pool = shared_pool(self.jobs)
        epoch = wall_now()
        if timeline is None:
            pool.ensure()
        elif pool.needs_spawn():
            with timeline.parent.span("spawn", workers=pool.workers):
                pool.ensure()
            timeline.pool_spawns += 1
        else:
            timeline.pool_reuse = True
        root = str(self.cache.root) if self.cache is not None else None
        tasks = [
            (point, (root, key) if root is not None else None,
             wall_now() if timeline is not None else None)
            for point, key in zip(batch, keys)
        ]
        payloads: list[dict[str, Any]] = []
        last_shipped = epoch
        results = pool.map(_pool_worker, tasks)
        for key, (payload, shipped, ok) in zip(keys, results):
            if timeline is not None:
                last_shipped = max([last_shipped] + [d["end"] for d in shipped])
                spans = [d for d in shipped
                         if not (d["name"] == "spawn" and d["end"] < epoch)]
                timeline.stale_spawn_spans += len(shipped) - len(spans)
                timeline.add_worker_spans(spans)
                if self.progress is not None:
                    # Live worker utilization: credit the busy-phase
                    # (engine_run/serialize) seconds this result shipped.
                    self.progress.note_busy_seconds(sum(
                        d["end"] - d["start"] for d in spans
                        if d["name"] in BUSY_PHASES
                    ))
            if not ok:
                self._write_failed()
            self._tick()
            payloads.append(payload)
        if timeline is not None:
            # The last result's trip back to the parent (pickle, pipe,
            # unpickle) is collection: ``collect`` opens where the last
            # worker span ended -- span clocks are epoch-aligned across
            # processes.
            now = wall_now()
            timeline.parent.add("collect", min(last_shipped, now), now)
        return payloads

    def _warn_once(self, event: str, **fields: Any) -> None:
        if event not in self._warned:
            self._warned.add(event)
            warn(event, **fields)

    def _warn_trace_serial(self, npoints: int) -> None:
        """Explain (once) why a ``--jobs`` sweep went serial: an active
        :class:`~repro.experiments.runner.TraceCollector` needs every
        run's tracer in-process, which neither a worker nor a cached
        replay can provide."""
        self._warn_once(
            "sweep.trace_serial_fallback",
            jobs=self.jobs,
            points=npoints,
            reason=(
                "an active TraceCollector needs in-process tracers; "
                "points run serial and uncached while it is collecting"
            ),
        )

    def _write_failed(self) -> None:
        """A cache entry could not be written: the point's record is
        still returned, only its replay is lost."""
        self._warn_once("sweep.cache_write_failed", cache=self.cache.root)


#: Shared no-op context: span sites with telemetry off, and the serial
#: loop's ledger guard in un-managed mode.
_NOOP = nullcontext()


def _span_on(recorder: Any, name: str, **meta: Any) -> Any:
    """A span on ``recorder``, or a no-op when it is ``None``."""
    return _NOOP if recorder is None else recorder.span(name, **meta)


def _maybe_span(timeline: SweepTimeline | None, name: str, **meta: Any) -> Any:
    """A parent span when a timeline is active, else a no-op."""
    return _NOOP if timeline is None else timeline.parent.span(name, **meta)


@contextmanager
def _suspended_ledger() -> Iterator[None]:
    """Mute ``run_app``'s ambient ledger hook (the executor records)."""
    prev = _runner._ACTIVE_LEDGER
    _runner._ACTIVE_LEDGER = None
    try:
        yield
    finally:
        _runner._ACTIVE_LEDGER = prev


# -- ambient executor ---------------------------------------------------------

_ACTIVE_EXECUTOR: SweepExecutor | None = None


@contextmanager
def sweep_execution(
    executor: SweepExecutor | None = None,
) -> Iterator[SweepExecutor]:
    """Route every sweep inside the ``with`` block through ``executor``.

    ``efficiency_curve``, ``required_size_by_simulation``,
    ``required_rank_hybrid`` and ``slowdown_sweep`` consult the ambient
    executor when none is passed explicitly (the CLI's ``--jobs`` /
    ``--no-cache`` flags enter this context).  With no argument, a
    serial executor with the persistent default cache is used.
    Reentrant: the previous executor is restored on exit.
    """
    global _ACTIVE_EXECUTOR
    active = executor if executor is not None else SweepExecutor(
        cache=RunCache()
    )
    previous = _ACTIVE_EXECUTOR
    _ACTIVE_EXECUTOR = active
    try:
        yield active
    finally:
        _ACTIVE_EXECUTOR = previous


def resolve_executor(executor: SweepExecutor | None = None) -> SweepExecutor:
    """Explicit executor wins; else the ambient one; else a serial one."""
    if executor is not None:
        return executor
    if _ACTIVE_EXECUTOR is not None:
        return _ACTIVE_EXECUTOR
    return SweepExecutor()
