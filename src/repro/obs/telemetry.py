"""Cross-process sweep telemetry: worker spans merged into one timeline.

The sweep executor fans points out over worker processes; the wall time
of a cold parallel sweep is dominated not by simulation but by the
machinery around it -- process spawn, point pickling, queue wait, cache
probes, payload serialization, cache writes and result collection.
A cold parallel sweep's "speedup" below 1x is exactly that overhead,
and it is invisible to the in-engine observability stack.

This module makes it visible:

* :class:`WorkerTelemetry` lives inside each pool worker (installed by
  the pool initializer), records a ``spawn`` span at startup and ships
  its per-task spans (``queue_wait`` / ``engine_run`` / ``serialize``,
  and ``cache_write`` when the sweep has a cache: a pool worker appends
  its own point's entry to its own cache segment) back to the parent
  with every result.
* :class:`SweepTimeline` is the parent-side aggregator: the parent's
  own spans (``cache_probe`` / ``spawn`` / ``collect``, plus
  ``engine_run`` / ``serialize`` / ``cache_write`` for points it runs
  in-process, under one ``sweep`` root) plus every shipped worker span,
  merged into per-phase totals, an interval-union coverage of the sweep
  wall, and per-worker utilization summaries.

Phase vocabulary (the overhead-attribution contract, see
``SweepTimeline.PHASES``): ``spawn``, ``queue_wait``, ``cache_probe``,
``engine_run``, ``serialize``, ``cache_write``, ``collect``.  Phases may
overlap in wall time (workers run concurrently with the parent), so the
per-phase totals are *worker-seconds*; :meth:`SweepTimeline.coverage`
projects them back onto the parent's wall clock as an interval union,
which is what the ≥95 %-attributed acceptance gate checks.

Driver spans outside the canonical vocabulary (``marked_speed``
measurement before a slowdown sweep, say) are *setup spans*: they still
count toward coverage and appear in the report, but live in a separate
``setup_spans`` block so the ``phases`` schema carried by ledger
documents never grows surprise keys.
"""

from __future__ import annotations

import os
from typing import Any, Iterable, Sequence

from .spans import Span, SpanRecorder, wall_now

#: Canonical overhead phases, in pipeline order.
PHASES: tuple[str, ...] = (
    "spawn", "queue_wait", "cache_probe", "engine_run", "serialize",
    "cache_write", "collect",
)

#: Span name of the parent's per-sweep root interval.
ROOT_SPAN = "sweep"

_PHASE_SET = frozenset(PHASES)

#: Phases counted as productive worker time for utilization.  A pool
#: worker's ``cache_write`` is not among them, so utilization keeps
#: meaning "simulating or encoding" whichever process writes the cache.
BUSY_PHASES = frozenset({"engine_run", "serialize"})


# -- worker side ---------------------------------------------------------------

class WorkerTelemetry:
    """Per-worker span collection living inside one pool process.

    Created by :func:`init_worker_telemetry` (the pool initializer) with
    the parent's pool-creation timestamp, so the first recorded span is
    the worker's own ``spawn`` latency: fork + interpreter bootstrap up
    to the initializer running.  Task spans accumulate in the recorder
    and are shipped incrementally with :meth:`drain` -- each result
    carries only the spans recorded since the previous one.
    """

    def __init__(self, pool_created_at: float | None = None,
                 label: str | None = None):
        pid = os.getpid()
        self.label = label or f"worker-{pid}"
        self.recorder = SpanRecorder(worker=self.label, pid=pid)
        self.tasks = 0
        if pool_created_at is not None:
            self.recorder.add("spawn", pool_created_at, wall_now())

    def start_task(self, submitted_at: float) -> None:
        """Record the queue wait of a task submitted at ``submitted_at``
        (parent clock) and picked up now (this worker's clock)."""
        self.tasks += 1
        self.recorder.add("queue_wait", submitted_at, wall_now(),
                          task=self.tasks)

    def drain(self) -> list[dict[str, Any]]:
        """Ship (and clear) every span recorded since the last drain."""
        shipped = self.recorder.to_dicts()
        self.recorder.spans = []
        return shipped


_WORKER: WorkerTelemetry | None = None


def init_worker_telemetry(pool_created_at: float) -> None:
    """Process-pool initializer: install this worker's telemetry."""
    global _WORKER
    _WORKER = WorkerTelemetry(pool_created_at)


def worker_telemetry() -> WorkerTelemetry:
    """The installed worker telemetry (a spawn-less one if absent)."""
    global _WORKER
    if _WORKER is None:
        _WORKER = WorkerTelemetry()
    return _WORKER


# -- interval arithmetic -------------------------------------------------------

def merged_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    spans = sorted((s, e) for s, e in intervals if e > s)
    total = 0.0
    cur_start: float | None = None
    cur_end = 0.0
    for start, end in spans:
        if cur_start is None:
            cur_start, cur_end = start, end
        elif start <= cur_end:
            cur_end = max(cur_end, end)
        else:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def _clip(span: Span, window: tuple[float, float]) -> tuple[float, float]:
    return (max(span.start, window[0]), min(span.end, window[1]))


# -- parent side ---------------------------------------------------------------

class SweepTimeline:
    """All spans of one sweep execution, merged into an overhead view.

    One instance per ``SweepExecutor.run_faulted`` call (exposed as
    ``executor.timeline``); the parent records into :attr:`parent` and
    worker-shipped spans accumulate via :meth:`add_worker_spans`.
    """

    PHASES = PHASES

    def __init__(self, jobs: int = 1):
        self.jobs = jobs
        self.points = 0
        self.cache_hits = 0
        self.parent = SpanRecorder(worker="parent")
        self.worker_spans: list[Span] = []
        #: Warm-vs-cold pool attribution: True when the parallel batch
        #: reused an already-spawned persistent pool (no spawn cost paid).
        self.pool_reuse = False
        #: Cold pool spawns this sweep paid for (0 on a warm sweep).
        self.pool_spawns = 0
        #: Worker spawn spans shipped this sweep but belonging to an
        #: earlier batch's cold spawn (filtered out of the phase table).
        self.stale_spawn_spans = 0

    # -- accumulation ------------------------------------------------------
    def add_worker_spans(
        self, shipped: Sequence[dict[str, Any]]
    ) -> None:
        """Merge spans shipped back from a worker (``drain()`` output)."""
        self.worker_spans.extend(Span.from_dict(d) for d in shipped)

    def all_spans(self) -> list[Span]:
        return self.parent.spans + self.worker_spans

    # -- windows -----------------------------------------------------------
    def root_windows(self) -> list[tuple[float, float]]:
        """The parent's ``sweep`` root interval(s)."""
        return [(s.start, s.end) for s in self.parent.spans
                if s.name == ROOT_SPAN and s.end > s.start]

    @property
    def wall_seconds(self) -> float:
        """Wall clock covered by the sweep root span(s)."""
        return merged_length(self.root_windows())

    # -- attribution -------------------------------------------------------
    def phase_totals(self) -> dict[str, float]:
        """Summed duration per canonical phase (worker-seconds).

        Keys are exactly :data:`PHASES`, each present even when
        unobserved (0.0), so consumers of the ``phases`` block (ledger
        records, ``repro sweep profile``) always see a stable schema.  Spans outside the canonical vocabulary — a driver's
        ``marked_speed`` setup, say — are reported separately by
        :meth:`setup_totals` instead of leaking in here.
        """
        totals: dict[str, float] = {name: 0.0 for name in PHASES}
        for span in self.all_spans():
            if span.name in _PHASE_SET:
                totals[span.name] += span.duration
        return totals

    def setup_totals(self) -> dict[str, float]:
        """Summed duration of non-canonical (driver setup) spans, by name."""
        totals: dict[str, float] = {}
        for span in self.all_spans():
            if span.name == ROOT_SPAN or span.name in _PHASE_SET:
                continue
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return dict(sorted(totals.items()))

    def phase_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {name: 0 for name in PHASES}
        for span in self.all_spans():
            if span.name in _PHASE_SET:
                counts[span.name] += 1
        return counts

    def setup_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for span in self.all_spans():
            if span.name == ROOT_SPAN or span.name in _PHASE_SET:
                continue
            counts[span.name] = counts.get(span.name, 0) + 1
        return dict(sorted(counts.items()))

    def coverage(self) -> float:
        """Fraction of the sweep wall covered by named phase spans.

        Every phase span is projected onto the parent's wall clock,
        clipped to the sweep root window(s), and the union length is
        divided by the wall.  1.0 means every wall instant of the sweep
        is explained by at least one named phase.
        """
        wall = self.wall_seconds
        if wall <= 0:
            return 0.0
        windows = self.root_windows()
        intervals = []
        for span in self.all_spans():
            if span.name == ROOT_SPAN:
                continue
            for window in windows:
                intervals.append(_clip(span, window))
        return min(1.0, merged_length(intervals) / wall)

    # -- per-worker view ---------------------------------------------------
    def worker_summaries(self) -> list[dict[str, Any]]:
        """One summary dict per worker context (parent excluded).

        ``window`` runs from the worker's first observed instant (the
        pool-creation timestamp its spawn span starts at) to its last
        span end; ``busy`` sums productive phases (engine run +
        serialize); ``utilization`` is their ratio.
        """
        by_worker: dict[str, list[Span]] = {}
        for span in self.worker_spans:
            by_worker.setdefault(span.worker, []).append(span)
        summaries = []
        for worker in sorted(by_worker):
            spans = by_worker[worker]
            start = min(s.start for s in spans)
            end = max(s.end for s in spans)
            busy = sum(s.duration for s in spans if s.name in BUSY_PHASES)
            window = max(0.0, end - start)
            summaries.append({
                "worker": worker,
                "pid": spans[0].pid,
                "tasks": sum(1 for s in spans if s.name == "engine_run"),
                "window_seconds": window,
                "busy_seconds": busy,
                "utilization": busy / window if window > 0 else 0.0,
            })
        return summaries

    def mean_utilization(self) -> float:
        summaries = self.worker_summaries()
        if not summaries:
            return 0.0
        return sum(s["utilization"] for s in summaries) / len(summaries)

    # -- export ------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """The ``telemetry`` block carried by ledger/bench documents."""
        return {
            "jobs": self.jobs,
            "points": self.points,
            "wall_seconds": self.wall_seconds,
            "coverage": self.coverage(),
            "phases": self.phase_totals(),
            "phase_counts": self.phase_counts(),
            "setup_spans": self.setup_totals(),
            "workers": self.worker_summaries(),
            "pool": {
                "reuse": self.pool_reuse,
                "spawns": self.pool_spawns,
                "stale_spawn_spans": self.stale_spawn_spans,
            },
        }

    def flat_metrics(self) -> dict[str, float]:
        """Flat metric surface for a ``source="sweep"`` ledger record."""
        metrics: dict[str, float] = {
            "wall_seconds": self.wall_seconds,
            "points": float(self.points),
            "jobs": float(self.jobs),
            "telemetry_coverage": self.coverage(),
            "worker_utilization_mean": self.mean_utilization(),
            "pool_reuse": 1.0 if self.pool_reuse else 0.0,
            "pool_spawns": float(self.pool_spawns),
        }
        for phase, seconds in self.phase_totals().items():
            metrics[f"phase_{phase}_seconds"] = seconds
        for name, seconds in self.setup_totals().items():
            metrics[f"setup_{name}_seconds"] = seconds
        return metrics

    # -- reporting ---------------------------------------------------------
    def format_report(
        self,
        title: str = "Sweep overhead attribution",
        serial_seconds: float | None = None,
    ) -> str:
        """The phase table that explains where the sweep wall went.

        With ``serial_seconds`` the header also states the measured
        serial-vs-parallel comparison, making a <1x "speedup" readable
        straight off the report.
        """
        from ..experiments.report import format_table

        wall = self.wall_seconds
        totals = self.phase_totals()
        counts = self.phase_counts()
        setup = self.setup_totals()
        setup_counts = self.setup_counts()
        attributed = sum(totals.values()) + sum(setup.values())
        rows = []
        labelled = [(phase, phase, totals, counts) for phase in PHASES]
        labelled += [(f"setup:{name}", name, setup, setup_counts)
                     for name in setup]
        for label, name, seconds_by, counts_by in labelled:
            seconds = seconds_by[name]
            rows.append((
                label,
                counts_by.get(name, 0),
                f"{seconds:.4f}",
                f"{100.0 * seconds / wall:.1f}%" if wall > 0 else "-",
                f"{100.0 * seconds / attributed:.1f}%" if attributed > 0
                else "-",
            ))
        table = format_table(
            ["phase", "spans", "seconds", "% of wall", "% of attributed"],
            rows,
            title=title,
        )
        lines = [table, ""]
        lines.append(
            f"wall {wall:.4f} s over {self.points} point(s), jobs="
            f"{self.jobs}; phase coverage of wall: "
            f"{100.0 * self.coverage():.1f}%"
        )
        if self.pool_reuse:
            lines.append(
                "worker pool: reused warm (no spawn paid"
                + (f"; {self.stale_spawn_spans} stale spawn span(s) "
                   "filtered" if self.stale_spawn_spans else "")
                + ")"
            )
        elif self.pool_spawns:
            lines.append(
                f"worker pool: cold ({self.pool_spawns} spawn(s) paid "
                "this sweep; subsequent sweeps in this process reuse it)"
            )
        summaries = self.worker_summaries()
        if summaries:
            lines.append(
                "worker utilization: " + ", ".join(
                    f"{s['worker']} {100.0 * s['utilization']:.0f}% "
                    f"({s['tasks']} task(s))"
                    for s in summaries
                )
            )
        if serial_seconds is not None and wall > 0:
            speedup = serial_seconds / wall
            lines.append(
                f"serial {serial_seconds:.4f} s vs parallel {wall:.4f} s: "
                f"{speedup:.2f}x"
            )
            if speedup < 1.0:
                overhead = {
                    p: totals[p] for p in PHASES if p != "engine_run"
                }
                worst = max(overhead, key=overhead.get)
                lines.append(
                    f"parallel is slower than serial: overhead phases cost "
                    f"{sum(overhead.values()):.4f} worker-seconds "
                    f"(largest: {worst} at {overhead[worst]:.4f} s) against "
                    f"{totals['engine_run']:.4f} s of simulation"
                )
        return "\n".join(lines)
