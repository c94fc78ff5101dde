"""Run observability: metrics, Chrome-trace export, and run analyzers.

The paper's Theorem 1 reduces scalability to the sequential and overhead
terms ``(t0 + To)``; this package makes those terms *visible* for any
simulated run:

* :mod:`repro.obs.metrics` — a labelled Counter / Gauge / Histogram
  registry; :func:`run_metrics` fills one after a run from its tracer's
  records (per-op counters and histograms) and its result (wall-clock
  self-profile of the engine).
* :mod:`repro.obs.chrome_trace` — export :class:`~repro.sim.trace.Tracer`
  records as Chrome trace-event JSON (``chrome://tracing`` / Perfetto).
* :mod:`repro.obs.analysis` — per-rank utilization, load-imbalance index,
  Theorem-1 overhead decomposition, a critical-path walk over the
  trace's compute/send/recv dependencies and a utilization timeline.
* :mod:`repro.obs.profiler` — the ``repro profile <app>`` engine room:
  one traced run, its metrics, every analyzer, three artifacts on disk.
* :mod:`repro.obs.ledger` — the persistent run ledger: every recorded run
  becomes a versioned JSON document plus an append-only index line, with
  git SHA / platform / cluster-hash provenance (``repro history``).
* :mod:`repro.obs.spans` — epoch-aligned wall-clock spans that cross
  the process boundary (the sweep-telemetry primitive).
* :mod:`repro.obs.telemetry` — cross-process sweep telemetry: per-worker
  span collection inside pool workers and the :class:`SweepTimeline`
  aggregator behind ``repro sweep profile`` (overhead attribution,
  phase coverage, worker utilization).
* :mod:`repro.obs.streaming` — per-run :func:`summarize_rank_stats`
  rank summaries (exact p50/p90/p99 of per-rank utilization, idle time
  and flops), a windowed :class:`RateMeter`, the
  :class:`ProgressReporter` sweep heartbeat (``--progress``) and
  :func:`warn`, the one-line stderr warning of sweeps, trace collectors
  and the adversarial search.

The engine itself is observed only through its two record stores,
:class:`~repro.sim.trace.Tracer` and
:class:`~repro.sim.flight.FlightRecorder` (which also lists, loads and
renders its crash/watchdog dumps); everything here is derived from them
or from a run's result after the run.
"""

from .analysis import (
    CriticalPath,
    MessageEdge,
    OverheadDecomposition,
    RankUtilization,
    critical_path,
    imbalance_index,
    overhead_decomposition,
    rank_utilization,
    utilization_timeline,
)
from .chrome_trace import (
    chrome_trace_events,
    telemetry_trace_events,
    write_chrome_trace,
    write_telemetry_trace,
)
from .spans import Span, SpanRecorder, wall_now
from .streaming import ProgressReporter, RateMeter, summarize_rank_stats, warn
from .telemetry import (
    PHASES,
    SweepTimeline,
    WorkerTelemetry,
    init_worker_telemetry,
    merged_length,
    worker_telemetry,
)
from .metrics import (
    BYTES_BUCKETS,
    DURATION_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    run_metrics,
)
from .ledger import (
    LedgerEntry,
    RunLedger,
    cluster_spec_hash,
    default_ledger_root,
    environment_info,
    git_sha,
)
from .profiler import ProfileReport, build_report, profile_app, write_report

__all__ = [
    "BYTES_BUCKETS",
    "Counter",
    "CriticalPath",
    "DURATION_BUCKETS",
    "Gauge",
    "Histogram",
    "LedgerEntry",
    "MessageEdge",
    "MetricsRegistry",
    "OverheadDecomposition",
    "PHASES",
    "ProfileReport",
    "ProgressReporter",
    "RankUtilization",
    "RateMeter",
    "RunLedger",
    "Span",
    "SpanRecorder",
    "SweepTimeline",
    "WorkerTelemetry",
    "build_report",
    "chrome_trace_events",
    "cluster_spec_hash",
    "critical_path",
    "default_ledger_root",
    "environment_info",
    "git_sha",
    "imbalance_index",
    "init_worker_telemetry",
    "merged_length",
    "overhead_decomposition",
    "profile_app",
    "rank_utilization",
    "run_metrics",
    "summarize_rank_stats",
    "telemetry_trace_events",
    "utilization_timeline",
    "wall_now",
    "warn",
    "worker_telemetry",
    "write_chrome_trace",
    "write_report",
    "write_telemetry_trace",
]
