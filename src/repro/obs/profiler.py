"""One-shot run profiling: trace + metrics + analyzer summary for any app.

This is the engine room of the ``repro profile <app>`` CLI command: it runs
a registered application with a tracer attached, derives the per-op metrics
from the trace once the run is over (:func:`~repro.obs.metrics.run_metrics`),
applies every analyzer in :mod:`repro.obs.analysis`, and (optionally) writes
three artifacts into an output directory:

* ``trace.json`` — Chrome trace-event JSON (load in ``chrome://tracing`` or
  Perfetto),
* ``metrics.json`` — the metrics-registry snapshot plus exact per-rank
  timing and the tracer's dropped-record count, and
* ``summary.txt`` — the human-readable report also printed by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .analysis import (
    CriticalPath,
    OverheadDecomposition,
    RankUtilization,
    critical_path,
    imbalance_index,
    rank_utilization,
    utilization_timeline,
)
from .chrome_trace import write_chrome_trace
from .metrics import MetricsRegistry, run_metrics
from .streaming import summarize_rank_stats
from ..sim.trace import Tracer

if TYPE_CHECKING:  # avoid importing the experiments layer at module load
    from ..experiments.runner import RunRecord
    from ..machine.cluster import ClusterSpec


@dataclass
class ProfileReport:
    """Everything a profiled run produced, plus the rendered summary."""

    app: str
    cluster_name: str
    problem_size: int
    record: "RunRecord"
    tracer: Tracer
    metrics: MetricsRegistry
    utilization: list[RankUtilization]
    decomposition: OverheadDecomposition
    path: CriticalPath
    imbalance: float
    summary: str
    out_dir: Path | None = None
    rank_summary: dict | None = None


def build_report(
    app: str,
    record: "RunRecord",
    tracer: Tracer,
    cluster_name: str = "",
) -> ProfileReport:
    """Derive the metrics of an already-executed traced run and apply
    every analyzer to it.

    The overhead decomposition reads W, C and f from ``record``
    (:meth:`~repro.experiments.runner.RunRecord.decomposition`).
    """
    from ..experiments.report import format_table

    m = record.measurement
    run = record.run
    makespan = run.makespan
    metrics = run_metrics(tracer, run)
    util = rank_utilization(run.stats, makespan)
    decomp = record.decomposition()
    timeline = "".join(
        str(min(9, int(level * 10)))
        for level in utilization_timeline(tracer, len(run.stats), makespan)
    )
    path = critical_path(tracer)
    imbalance = imbalance_index(run.stats)
    rank_summary = summarize_rank_stats(run.stats, makespan)

    def exact(value: float) -> str:
        # Full precision: the per-rank rows must sum to the makespan.
        return f"{value:.12g}"

    lines = [
        f"profile: {app} N={m.problem_size} on "
        f"{cluster_name or m.label} ({len(run.stats)} ranks)",
        f"makespan T = {exact(makespan)} s, speed-efficiency E_S = "
        f"{m.speed_efficiency:.4f}",
        f"events = {run.events}, undelivered messages = "
        f"{run.undelivered_messages}, trace records = "
        f"{len(tracer)} (dropped {tracer.dropped})",
        f"engine: {run.events_per_second:,.0f} events/s over "
        f"{run.wall_seconds:.3f} s wall, {run.heap_pushes} heap pushes, "
        f"stale-pop ratio {run.stale_pop_ratio:.3f}",
        "",
        format_table(
            ["rank", "compute (s)", "send (s)", "recv wait (s)", "idle (s)",
             "utilization"],
            [
                (u.rank, exact(u.compute), exact(u.send), exact(u.recv_wait),
                 exact(u.idle), f"{u.utilization:.1%}")
                for u in util
            ],
            title="Per-rank time (columns sum to the makespan)",
        ),
        f"utilization [{timeline}] (0=idle .. 9=all ranks computing)",
        "",
        format_table(
            ["term", "seconds", "fraction of T"],
            [(term, sec, f"{frac:.1%}") for term, sec, frac in decomp.as_rows()],
            title="Overhead decomposition (Theorem 1: T = (1-a)W/C + t0 + To)",
        ),
        "",
        f"load-imbalance index (compute): {imbalance:.4f}",
        "rank utilization quantiles: p50 {p50:.1%}, p90 {p90:.1%}, "
        "p99 {p99:.1%} (mean {mean:.1%} over {ranks} ranks)".format(
            p50=rank_summary["utilization"]["p50"],
            p90=rank_summary["utilization"]["p90"],
            p99=rank_summary["utilization"]["p99"],
            mean=rank_summary["utilization"]["mean"],
            ranks=rank_summary["ranks"],
        ),
        "busiest ranks: " + ", ".join(
            f"rank {e['rank']} {e['utilization']:.1%}"
            for e in rank_summary["top_busiest"]
        ),
        "idlest ranks: " + ", ".join(
            f"rank {e['rank']} {e['utilization']:.1%} "
            f"(idle {e['idle_seconds']:.6g}s)"
            for e in rank_summary["top_idlest"]
        ),
        f"critical path: length = {exact(path.length)} s "
        f"({len(path.records)} records, {len(path.edges)} message edges, "
        f"complete={path.complete})",
    ]
    if path.time_by_kind:
        kind_parts = ", ".join(
            f"{kind} {seconds:.6g}s"
            for kind, seconds in sorted(
                path.time_by_kind.items(), key=lambda kv: -kv[1]
            )
        )
        lines.append(f"critical-path time by kind: {kind_parts}")
    if path.time_by_rank:
        rank_parts = ", ".join(
            f"rank {rank} {path.time_by_rank[rank]:.6g}s"
            for rank in path.ranks[:8]
        )
        lines.append(f"critical-path time by rank: {rank_parts}")
    if path.edges:
        edge_rows = sorted(path.edges, key=lambda e: -e.span)[:10]
        lines.append("")
        lines.append(
            format_table(
                ["src", "dst", "tag", "nbytes", "edge span (s)"],
                [
                    (e.src_rank, e.dst_rank, e.tag, e.nbytes, e.span)
                    for e in edge_rows
                ],
                title="Slowest message edges on the critical path",
            )
        )

    return ProfileReport(
        app=app,
        cluster_name=cluster_name or m.label,
        problem_size=m.problem_size or 0,
        record=record,
        tracer=tracer,
        metrics=metrics,
        utilization=util,
        decomposition=decomp,
        path=path,
        imbalance=imbalance,
        summary="\n".join(lines),
        rank_summary=rank_summary,
    )


def write_report(report: ProfileReport, out_dir: str | Path) -> Path:
    """Write ``trace.json``, ``metrics.json`` and ``summary.txt``."""
    from ..experiments.persistence import write_json_document

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(
        out / "trace.json",
        [(f"{report.app} N={report.problem_size} on {report.cluster_name}",
          report.tracer)],
    )
    run = report.record.run
    write_json_document(
        out / "metrics.json",
        kind="run-metrics",
        payload={
            **report.metrics.to_dict(),
            "run": {
                "app": report.app,
                "cluster": report.cluster_name,
                "problem_size": report.problem_size,
                "makespan": run.makespan,
                "events": run.events,
                "undelivered_messages": run.undelivered_messages,
                # Per-op counters come from the stored records only.
                "trace_dropped": report.tracer.dropped,
                "per_rank": [
                    {
                        "rank": u.rank,
                        "compute": u.compute,
                        "send": u.send,
                        "recv_wait": u.recv_wait,
                        "idle": u.idle,
                        "utilization": u.utilization,
                    }
                    for u in report.utilization
                ],
                "rank_summary": report.rank_summary,
            },
        },
    )
    (out / "summary.txt").write_text(report.summary + "\n")
    report.out_dir = out
    return out


def profile_app(
    app: str,
    cluster: "ClusterSpec",
    n: int,
    out_dir: str | Path | None = None,
    tracer_limit: int = 1_000_000,
    **run_kwargs,
) -> ProfileReport:
    """Run ``app`` at size ``n`` with full observability and analyze it.

    Accepts any name/alias known to the application registry.  Extra
    keyword arguments go to the underlying runner (``seed=``,
    ``marked=``, ...).  When ``out_dir`` is given the three artifacts are
    written there (see module docstring).
    """
    from ..experiments.runner import resolve_app, run_app

    app = resolve_app(app)
    tracer = Tracer(limit=tracer_limit)
    record = run_app(app, cluster, n, tracer=tracer, **run_kwargs)
    report = build_report(app, record, tracer, cluster_name=cluster.name)
    if out_dir is not None:
        write_report(report, out_dir)
    return report
