"""Persistent run ledger: every simulated run leaves an auditable record.

PR 1 made single runs observable; the ledger makes *history* observable.
Each recorded run becomes one ``write_json_document``-enveloped JSON file
under ``<root>/runs/`` plus one line in an append-only JSONL index
(``<root>/index.jsonl``), capturing

* identity -- run id, UTC timestamp, source (``run`` / ``profile`` /
  ``sweep`` / ``faults`` / ``attack``),
* provenance -- git SHA, Python version, platform, ``repro`` version,
  cluster name / rank count / spec hash,
* the metric surface -- makespan, speed-efficiency, load-imbalance index,
  the Theorem-1 decomposition, and the engine's wall-clock self-profile,
* a ``rank_summary`` block -- exact per-rank utilization/idle/flops
  statistics (p50/p90/p99, :func:`~repro.obs.streaming.summarize_rank_stats`)
  plus the top-k busiest and idlest ranks, with the utilization
  quantiles mirrored into the flat metrics.

The default root is ``.repro/ledger`` under the current directory,
overridable with the ``REPRO_LEDGER_DIR`` environment variable or an
explicit ``root=``.  ``repro history`` lists the index.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import uuid
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from .analysis import imbalance_index
from .streaming import summarize_rank_stats

if TYPE_CHECKING:  # avoid importing the experiments layer at module load
    from ..experiments.runner import RunRecord
    from ..machine.cluster import ClusterSpec
    from .profiler import ProfileReport

#: Document kind of one persisted run record.
RUN_RECORD_KIND = "run-record"

#: Every ``source`` a ledger writer records: ``run`` (one simulation,
#: recorded by ``run_app`` or the sweep executor), ``profile`` (``repro
#: profile``), ``sweep`` (sweep-level telemetry), ``faults`` (a faulted
#: run) and ``attack`` (a worst-case search optimum).
LEDGER_SOURCES = ("run", "profile", "sweep", "faults", "attack")

#: Default ledger location (relative to the working directory).
DEFAULT_LEDGER_DIR = ".repro/ledger"

#: Environment variable overriding the default ledger location.
LEDGER_DIR_ENV = "REPRO_LEDGER_DIR"


def default_ledger_root() -> Path:
    """The ledger directory used when none is given explicitly."""
    return Path(os.environ.get(LEDGER_DIR_ENV, DEFAULT_LEDGER_DIR))


def git_sha(cwd: str | Path | None = None) -> str | None:
    """HEAD commit of the working directory's repository, or None."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def cluster_spec_hash(cluster: "ClusterSpec") -> str:
    """Short stable hash of everything that determines a cluster's timing.

    Memoized on the instance: every field it hashes is immutable (frozen
    slot, processor-type and link dataclasses, tuples), so a sweep that
    keys many points on one cluster hashes it once.
    """
    digest = cluster.__dict__.get("_spec_hash")
    if digest is None:
        digest = _cluster_digest(cluster)
        object.__setattr__(cluster, "_spec_hash", digest)
    return digest


def _cluster_digest(cluster: "ClusterSpec") -> str:
    spec = {
        "name": cluster.name,
        "network_kind": cluster.network_kind,
        "slots": [
            (slot.ptype.name, slot.ptype.clock_mhz,
             slot.ptype.peak_mflops, slot.node_id)
            for slot in cluster.slots
        ],
        "link": (cluster.link.latency, cluster.link.bandwidth,
                 cluster.link.software_overhead),
        "intranode": (cluster.intranode.latency, cluster.intranode.bandwidth,
                      cluster.intranode.software_overhead),
        "node_memory_mb": list(cluster.node_memory_mb),
    }
    # Tier grouping folds in only when present so hashes of flat clusters
    # recorded before hierarchical topologies existed stay stable.
    if cluster.node_racks:
        spec["node_racks"] = list(cluster.node_racks)
    if cluster.node_zones:
        spec["node_zones"] = list(cluster.node_zones)
    blob = json.dumps(spec, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def environment_info() -> dict[str, Any]:
    """Provenance block shared by every run record."""
    from .. import __version__

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repro_version": __version__,
    }


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _new_run_id(app: str, problem_size: Any) -> str:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    size = f"-n{problem_size}" if problem_size else ""
    return f"{stamp}-{app}{size}-{uuid.uuid4().hex[:8]}"


def _run_metrics(record: "RunRecord") -> dict[str, float]:
    """Flat metric dict of one executed run (the comparable surface)."""
    m = record.measurement
    run = record.run
    decomp = record.decomposition()
    return {
        "makespan": run.makespan,
        "speed_efficiency": m.speed_efficiency,
        "work": m.work,
        "marked_speed": m.marked_speed,
        # Above the executor's rank-summary threshold a rehydrated run
        # carries no per-rank stats; the flat metric degrades to 0.0
        # (the summary block still holds the distribution).
        "imbalance_index": (
            imbalance_index(run.stats) if len(run.stats) else 0.0
        ),
        "theorem1_ideal_compute": decomp.ideal_compute,
        "theorem1_t0": decomp.t0,
        "theorem1_overhead": decomp.overhead,
        "theorem1_overhead_fraction": decomp.overhead_fraction,
        "events": float(run.events),
        "undelivered_messages": float(run.undelivered_messages),
        "wall_seconds": run.wall_seconds,
        "events_per_second": run.events_per_second,
        "heap_pushes": float(run.heap_pushes),
        "heap_pops": float(run.heap_pops),
        "stale_pops": float(run.stale_pops),
        "stale_pop_ratio": run.stale_pop_ratio,
    }


def _summary_metrics(summary: dict[str, Any]) -> dict[str, float]:
    """Flat view of a ``rank_summary`` block."""
    utilization = summary["utilization"]
    return {
        "utilization_p50": utilization["p50"],
        "utilization_p90": utilization["p90"],
        "utilization_p99": utilization["p99"],
        "utilization_mean": utilization["mean"],
    }


@dataclass(frozen=True)
class LedgerEntry:
    """One line of the append-only index (the cheap, scannable view)."""

    run_id: str
    created_utc: str
    source: str
    app: str
    problem_size: int | None
    cluster: str
    makespan: float | None
    speed_efficiency: float | None
    path: str

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LedgerEntry":
        return cls(
            run_id=data["run_id"],
            created_utc=data.get("created_utc", ""),
            source=data.get("source", "run"),
            app=data.get("app", ""),
            problem_size=data.get("problem_size"),
            cluster=data.get("cluster", ""),
            makespan=data.get("makespan"),
            speed_efficiency=data.get("speed_efficiency"),
            path=data.get("path", f"runs/{data['run_id']}.json"),
        )


class RunLedger:
    """Append-only store of run records under one root directory.

    Layout::

        <root>/runs/<run_id>.json   -- full enveloped run records
        <root>/index.jsonl          -- one JSON line per record, append-only
    """

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_ledger_root()
        self.runs_dir = self.root / "runs"
        self.index_path = self.root / "index.jsonl"

    # -- writing -----------------------------------------------------------
    def _write(self, run_id: str, payload: dict[str, Any]) -> str:
        from ..experiments.persistence import write_json_document

        self.runs_dir.mkdir(parents=True, exist_ok=True)
        relative = f"runs/{run_id}.json"
        write_json_document(self.runs_dir / f"{run_id}.json",
                            kind=RUN_RECORD_KIND, payload=payload)
        metrics = payload.get("metrics", {})
        index_line = {
            "run_id": run_id,
            "created_utc": payload["created_utc"],
            "source": payload["source"],
            "app": payload["app"],
            "problem_size": payload.get("problem_size"),
            "cluster": payload.get("cluster", {}).get("name", ""),
            "makespan": metrics.get("makespan"),
            "speed_efficiency": metrics.get("speed_efficiency"),
            "path": relative,
        }
        with self.index_path.open("a") as handle:
            handle.write(json.dumps(index_line, sort_keys=True) + "\n")
        return run_id

    def record_run(
        self,
        app: str,
        cluster: "ClusterSpec",
        record: "RunRecord",
        source: str = "run",
        extra_metrics: dict[str, float] | None = None,
        fault: dict[str, Any] | None = None,
    ) -> str:
        """Persist one executed :class:`RunRecord`; returns the run id.

        ``fault`` attaches a fault block to the record (profile hash plus
        the fault metric surface) for runs executed under a fault schedule;
        such records conventionally use ``source="faults"``.
        """
        metrics = _run_metrics(record)
        if record.run.stats or record.run.rank_summary is None:
            summary = summarize_rank_stats(
                record.run.stats, record.run.makespan
            )
        else:
            # Large-rank run rehydrated from the executor cache: the
            # streaming summary computed at run time *is* the record.
            summary = record.run.rank_summary
        metrics.update(_summary_metrics(summary))
        if extra_metrics:
            metrics.update(extra_metrics)
        m = record.measurement
        run_id = _new_run_id(app, m.problem_size)
        payload: dict[str, Any] = {
            "run_id": run_id,
            "created_utc": _utc_now(),
            "source": source,
            "app": app,
            "problem_size": m.problem_size,
            "cluster": {
                "name": cluster.name,
                "nranks": cluster.nranks,
                "nnodes": cluster.nnodes,
                "spec_hash": cluster_spec_hash(cluster),
            },
            "env": environment_info(),
            "metrics": metrics,
            "rank_summary": summary,
        }
        if fault is not None:
            payload["fault"] = fault
        return self._write(run_id, payload)

    def record_report(
        self,
        report: "ProfileReport",
        cluster: "ClusterSpec",
    ) -> str:
        """Persist a ``repro profile`` report, reusing its analyzer results."""
        return self.record_run(
            report.app,
            cluster,
            report.record,
            source="profile",
            extra_metrics={
                "critical_path_length": report.path.length,
                "trace_records": float(len(report.tracer.records)),
                "trace_dropped": float(report.tracer.dropped),
            },
        )

    def record_sweep(
        self,
        app: str,
        cluster: "ClusterSpec",
        timeline: Any,
        extra_metrics: dict[str, float] | None = None,
    ) -> str:
        """Persist one sweep-level telemetry record (``source="sweep"``).

        ``timeline`` is a :class:`~repro.obs.telemetry.SweepTimeline`;
        its flat metric surface (wall seconds, per-phase totals,
        coverage, worker utilization) becomes the record's ``metrics``
        and the full structured view rides along as a ``telemetry``
        block.  Returns the new run id.
        """
        metrics = dict(timeline.flat_metrics())
        if extra_metrics:
            metrics.update(extra_metrics)
        run_id = _new_run_id(f"sweep-{app}", None)
        payload: dict[str, Any] = {
            "run_id": run_id,
            "created_utc": _utc_now(),
            "source": "sweep",
            "app": app,
            "problem_size": None,
            "cluster": {
                "name": cluster.name,
                "nranks": cluster.nranks,
                "nnodes": cluster.nnodes,
                "spec_hash": cluster_spec_hash(cluster),
            },
            "env": environment_info(),
            "metrics": metrics,
            "telemetry": timeline.to_dict(),
        }
        return self._write(run_id, payload)

    # -- reading -----------------------------------------------------------
    def entries(self) -> Iterator[LedgerEntry]:
        """All index entries in append (chronological) order."""
        if not self.index_path.exists():
            return
        for line in self.index_path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                continue  # a torn append must not break history
            if not isinstance(data, dict) or not isinstance(
                data.get("run_id"), str
            ):
                continue  # nor may a line that is not an index entry
            yield LedgerEntry.from_dict(data)

    def history(
        self,
        app: str | None = None,
        source: str | None = None,
        limit: int | None = None,
    ) -> list[LedgerEntry]:
        """Index entries newest-first, optionally filtered."""
        selected = [
            entry for entry in self.entries()
            if (app is None or entry.app == app)
            and (source is None or entry.source == source)
        ]
        selected.reverse()
        if limit is not None:
            selected = selected[:limit]
        return selected

    def load(self, run_id: str) -> dict[str, Any]:
        """Full record for an exact run id or a unique prefix."""
        from ..core.types import MetricError
        from ..experiments.persistence import read_json_document

        path = self.runs_dir / f"{run_id}.json"
        if not path.exists():
            matches = sorted(self.runs_dir.glob(f"{run_id}*.json")) \
                if self.runs_dir.exists() else []
            if len(matches) == 1:
                path = matches[0]
            elif len(matches) > 1:
                names = ", ".join(p.stem for p in matches[:5])
                raise MetricError(
                    f"run id prefix {run_id!r} is ambiguous in {self.root}: "
                    f"{names}"
                )
            else:
                raise MetricError(
                    f"no run {run_id!r} in ledger {self.root} "
                    f"(see `repro history`)"
                )
        document = read_json_document(path, kind=RUN_RECORD_KIND)
        return checked_record(document, path)


def checked_record(record: Any, source: Any) -> dict[str, Any]:
    """``record`` if it has the shape a run record must have.

    Raises :class:`~repro.core.types.MetricError` (naming ``source``)
    when ``record`` is not an object, its ``metrics`` is not an object,
    or its ``run_id`` is present but not a string.
    """
    from ..core.types import MetricError

    if not isinstance(record, dict):
        raise MetricError(f"{source} does not contain a JSON object")
    if not isinstance(record.get("metrics", {}), dict):
        raise MetricError(f"{source}: 'metrics' is not a JSON object")
    if "run_id" in record and not isinstance(record["run_id"], str):
        raise MetricError(f"{source}: 'run_id' is not a string")
    return record
