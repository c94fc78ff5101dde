"""Cross-run regression checking: compare run records, gate CI on perf.

Two halves:

* :func:`compare_records` -- metric-by-metric deltas between any two run
  records (ledger entries, ``repro profile`` runs, or raw ``BENCH_*.json``
  payloads normalized by :func:`repro.obs.ledger.bench_to_record`), each
  judged against a :class:`MetricSpec` with WARN/FAIL relative-delta
  thresholds and an absolute noise floor.
* named baselines -- a run record frozen under ``<root>/<name>.json``
  (default root ``.repro/baselines``, which is *committable*, unlike the
  per-run ledger) that later runs are checked against; ``repro baseline
  check`` turns a FAIL verdict into a nonzero exit so CI fails the build.

Deterministic simulator metrics (makespan, speed-efficiency, imbalance)
carry FAIL thresholds; wall-clock metrics (events/second, bench wall time)
only WARN by default because they vary across machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

#: Default directory for committed baselines (kept out of the ledger so it
#: can live in version control).
DEFAULT_BASELINE_DIR = ".repro/baselines"

#: Document kind of a frozen baseline.
BASELINE_KIND = "run-baseline"

#: Verdict ordering, worst last.
VERDICT_ORDER = ("PASS", "WARN", "FAIL")


@dataclass(frozen=True)
class MetricSpec:
    """How one metric is judged when comparing two runs.

    ``direction`` says which way is *better* ("lower" or "higher");
    regressions are movements the other way.  ``warn`` / ``fail`` are
    relative-delta thresholds on the regression side (``fail=None`` means
    the metric never fails the check -- informational/wall-clock metrics).
    ``abs_tol`` is an absolute noise floor: deltas smaller than it always
    PASS.
    """

    name: str
    direction: str = "lower"
    warn: float = 0.02
    fail: float | None = 0.10
    abs_tol: float = 0.0

    def __post_init__(self) -> None:
        if self.direction not in ("lower", "higher"):
            raise ValueError(
                f"direction must be 'lower' or 'higher', got {self.direction!r}"
            )
        if self.fail is not None and self.fail < self.warn:
            raise ValueError(
                f"fail threshold {self.fail} below warn threshold {self.warn}"
            )


#: Specs for the standard run-record metric surface.  Virtual-time metrics
#: gate hard; wall-clock metrics warn only (machine-dependent noise).
DEFAULT_SPECS: tuple[MetricSpec, ...] = (
    MetricSpec("makespan", direction="lower", warn=0.02, fail=0.10),
    MetricSpec("speed_efficiency", direction="higher", warn=0.02, fail=0.10),
    MetricSpec("imbalance_index", direction="lower", warn=0.05, fail=0.25,
               abs_tol=1e-3),
    MetricSpec("theorem1_overhead", direction="lower", warn=0.05, fail=0.25,
               abs_tol=1e-9),
    MetricSpec("events", direction="lower", warn=0.02, fail=None),
    MetricSpec("events_per_second", direction="higher", warn=0.15, fail=None),
    MetricSpec("mean_wall_seconds", direction="lower", warn=0.15, fail=None),
    MetricSpec("wall_seconds", direction="lower", warn=0.15, fail=None),
    MetricSpec("stale_pop_ratio", direction="lower", warn=0.10, fail=None,
               abs_tol=1e-3),
)


def spec_map(
    specs: tuple[MetricSpec, ...] | Mapping[str, MetricSpec] | None = None,
) -> dict[str, MetricSpec]:
    """Normalize a spec collection into a by-name mapping."""
    if specs is None:
        specs = DEFAULT_SPECS
    if isinstance(specs, Mapping):
        return dict(specs)
    return {spec.name: spec for spec in specs}


@dataclass(frozen=True)
class MetricDelta:
    """One metric's movement between a baseline and a candidate run."""

    name: str
    baseline: float
    candidate: float
    rel_delta: float  # signed (candidate - baseline) / |baseline|
    regression: float  # positive = moved the *bad* way, per the spec
    verdict: str  # PASS / WARN / FAIL / "" (no spec -> informational)
    note: str = ""


@dataclass
class ComparisonReport:
    """Metric-by-metric comparison of two run records."""

    baseline_id: str
    candidate_id: str
    deltas: list[MetricDelta] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        """Worst verdict across judged metrics (PASS when none judged)."""
        worst = "PASS"
        for delta in self.deltas:
            if delta.verdict and (
                VERDICT_ORDER.index(delta.verdict) > VERDICT_ORDER.index(worst)
            ):
                worst = delta.verdict
        return worst

    @property
    def failed(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.verdict == "FAIL"]

    def format(self, title: str | None = None) -> str:
        """Human-readable delta table (the ``repro compare`` output)."""
        from ..experiments.report import format_table

        rows = []
        for d in self.deltas:
            rows.append((
                d.name,
                f"{d.baseline:.6g}",
                f"{d.candidate:.6g}",
                f"{d.rel_delta:+.2%}",
                d.verdict or "info",
            ))
        table = format_table(
            ["metric", "baseline", "candidate", "delta", "verdict"],
            rows,
            title=title or (
                f"Run comparison: {self.baseline_id} -> {self.candidate_id}"
            ),
        )
        lines = [table]
        if self.missing:
            lines.append(
                "metrics present in only one run: " + ", ".join(self.missing)
            )
        lines.append(f"overall verdict: {self.verdict}")
        return "\n".join(lines)


def judge(spec: MetricSpec, baseline: float, candidate: float) -> MetricDelta:
    """Judge one metric movement against its spec."""
    diff = candidate - baseline
    if baseline != 0:
        rel = diff / abs(baseline)
    else:
        rel = 0.0 if diff == 0 else float("inf") * (1 if diff > 0 else -1)
    regression = rel if spec.direction == "lower" else -rel
    note = ""
    if abs(diff) <= spec.abs_tol:
        verdict = "PASS"
        if diff != 0:
            note = f"within abs_tol={spec.abs_tol:g}"
    elif spec.fail is not None and regression > spec.fail:
        verdict = "FAIL"
        note = f"regressed past fail threshold {spec.fail:.0%}"
    elif regression > spec.warn:
        verdict = "WARN"
        note = f"regressed past warn threshold {spec.warn:.0%}"
    else:
        verdict = "PASS"
    return MetricDelta(
        name=spec.name, baseline=baseline, candidate=candidate,
        rel_delta=rel if baseline != 0 or diff != 0 else 0.0,
        regression=regression, verdict=verdict, note=note,
    )


def _metrics_of(record: Mapping[str, Any]) -> dict[str, float]:
    metrics = record.get("metrics", {})
    return {
        name: float(value)
        for name, value in metrics.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def compare_records(
    baseline: Mapping[str, Any],
    candidate: Mapping[str, Any],
    specs: tuple[MetricSpec, ...] | Mapping[str, MetricSpec] | None = None,
) -> ComparisonReport:
    """Compare two run records metric-by-metric.

    Metrics with a spec get PASS/WARN/FAIL verdicts; common metrics
    without one are listed informationally (empty verdict).  Metrics
    present in only one record are reported in ``missing``.
    """
    by_name = spec_map(specs)
    base_metrics = _metrics_of(baseline)
    cand_metrics = _metrics_of(candidate)
    report = ComparisonReport(
        baseline_id=str(baseline.get("run_id", "baseline")),
        candidate_id=str(candidate.get("run_id", "candidate")),
    )
    common = [n for n in base_metrics if n in cand_metrics]
    # Spec'd metrics first (they decide the verdict), then informational.
    common.sort(key=lambda n: (n not in by_name, n))
    for name in common:
        b, c = base_metrics[name], cand_metrics[name]
        spec = by_name.get(name)
        if spec is not None:
            report.deltas.append(judge(spec, b, c))
        else:
            rel = (c - b) / abs(b) if b != 0 else (0.0 if c == b else float("inf"))
            report.deltas.append(MetricDelta(
                name=name, baseline=b, candidate=c, rel_delta=rel,
                regression=0.0, verdict="",
            ))
    report.missing = sorted(
        set(base_metrics).symmetric_difference(cand_metrics)
    )
    return report


# -- named baselines ---------------------------------------------------------

def baseline_path(
    name: str = "default", root: str | Path | None = None
) -> Path:
    """File a named baseline is stored at."""
    return Path(root if root is not None else DEFAULT_BASELINE_DIR) / f"{name}.json"


def save_baseline(
    record: Mapping[str, Any],
    name: str = "default",
    root: str | Path | None = None,
) -> Path:
    """Freeze a run record as the named baseline; returns the file path."""
    from ..experiments.persistence import write_json_document

    path = baseline_path(name, root)
    write_json_document(
        path,
        kind=BASELINE_KIND,
        payload={"baseline": name, "record": dict(record)},
    )
    return path


def load_baseline(
    name: str = "default", root: str | Path | None = None
) -> dict[str, Any] | None:
    """The named baseline's frozen record, or None when not set."""
    from ..experiments.persistence import read_json_document
    from .ledger import checked_record

    path = baseline_path(name, root)
    if not path.exists():
        return None
    document = read_json_document(path, kind=BASELINE_KIND)
    return checked_record(document.get("record"), f"baseline {path}")


def check_against_baseline(
    candidate: Mapping[str, Any],
    name: str = "default",
    root: str | Path | None = None,
    specs: tuple[MetricSpec, ...] | Mapping[str, MetricSpec] | None = None,
) -> ComparisonReport | None:
    """Compare a candidate against the named baseline (None if unset)."""
    baseline = load_baseline(name, root)
    if baseline is None:
        return None
    return compare_records(baseline, candidate, specs=specs)
