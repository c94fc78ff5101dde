"""The invariant oracle: the one place that checks a run.

``check_scenario`` executes one :class:`~.scenario.Scenario` and returns
a :class:`ScenarioReport` listing every broken invariant (empty list ==
the scenario passes):

* **crash** -- the engine raised (deadlock, protocol violation, ...) on
  a scenario the generator guarantees is structurally valid;
* **causality / accounting / conservation / psi-bounds** --
  :func:`check_invariants` and :func:`check_trace_invariants` over the
  faulted run, its baseline, and the faulted run's trace;
* **monotonicity** -- the faulted run must not beat its fault-free
  baseline, and ψ of the full-severity schedule must not exceed ψ of the
  same schedule scaled milder
  (:meth:`~repro.faults.schedule.FaultSchedule.scaled`);
* **bit-identity** -- the serial path, a jobs=2 process pool, a
  cold cache write and a warm cache replay must all produce the *same
  bits* (finish times, per-rank stats, measurement) for the same
  scenario.

:func:`check_sweep_invariants` holds a fault sweep's rows to the same
metric properties, each written once as one predicate below: ψ ∈ (0, 1],
baseline dominance and ψ-monotonicity.

Every scenario runs through :func:`~repro.faults.run.run_app_under_faults`,
the faulted-run path the sweeps use, so the ψ checked here is the ψ they
report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from ..experiments.executor import (
    RunCache,
    SweepExecutor,
    SweepPoint,
    run_record_to_payload,
)
from ..faults.analysis import FaultSweepRow
from ..faults.run import FaultyRun, run_app_under_faults
from ..sim.errors import SimulationError
from ..sim.trace import Tracer
from .scenario import Scenario

#: Relative slack of every floating-point comparison the oracle makes.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class InvariantViolation:
    """One broken property of a simulated run.

    ``kind`` names the invariant family (``causality``, ``accounting``,
    ``conservation``, ``psi-bounds``, ``monotonicity``, ``bit-identity``,
    ``crash``, ``replay``); ``message`` is human-readable; ``context``
    carries the offending numbers for reports and corpus entries.
    """

    kind: str
    message: str
    context: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"

    def to_payload(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "message": self.message,
            "context": dict(self.context),
        }


# -- the metric properties, one predicate each ---------------------------------

def _psi_bound(psi: float, **context: Any) -> list[InvariantViolation]:
    """ψ ∈ (0, 1]: faults can never *improve* scalability."""
    if math.isfinite(psi) and 0.0 < psi <= 1.0 + TOLERANCE:
        return []
    return [InvariantViolation(
        "psi-bounds", f"degraded psi {psi!r} outside (0, 1]",
        {"psi": psi, **context},
    )]


def _baseline_dominance(
    makespan: float, baseline: float, **context: Any
) -> list[InvariantViolation]:
    """T' >= T: faults only add overhead; a faulted run that beats its
    baseline means time flowed backwards somewhere."""
    if makespan >= baseline - TOLERANCE * max(1.0, abs(baseline)):
        return []
    return [InvariantViolation(
        "monotonicity",
        f"faulted run finished before its fault-free baseline: "
        f"T'={makespan!r} < T={baseline!r}",
        {"makespan": makespan, "baseline_makespan": baseline, **context},
    )]


def _psi_monotone(
    psi_milder: float, psi_harsher: float, **context: Any
) -> list[InvariantViolation]:
    """ψ never rises as faults get harsher (they only inflate ``T_o'``)."""
    if psi_harsher <= psi_milder + TOLERANCE:
        return []
    return [InvariantViolation(
        "monotonicity",
        f"psi rose from {psi_milder!r} to {psi_harsher!r} under harsher "
        f"faults",
        {"psi_milder": psi_milder, "psi_harsher": psi_harsher, **context},
    )]


# -- run-level checks ----------------------------------------------------------

def check_invariants(
    result: Any,
    work: float | None = None,
    psi: float | None = None,
    nranks: int | None = None,
) -> list[InvariantViolation]:
    """Check one :class:`~repro.sim.engine.RunResult` against the engine's
    virtual-time and accounting invariants.

    Always checked: every clock is finite and non-negative, per-rank
    busy time never exceeds the rank's own finish time (virtual-time
    causality: a rank cannot have been busy for longer than it existed),
    per-rank aggregates are non-negative, stats and finish times agree,
    and scheduler counters are consistent (``stale_pops <= heap_pops``).

    With ``work`` given, flops conservation is checked: the flops credited
    across all ranks must equal the application workload ``W`` to within
    :data:`TOLERANCE` (relative) -- fault injection splits and slows
    compute segments but must never create or destroy work.  (Skip this
    for fail-stop runs: a killed rank legitimately leaves work undone.)

    With ``psi`` given, the metric bound ψ ∈ (0, 1] is checked.

    Returns the violations found (empty list: all invariants hold).
    """
    out: list[InvariantViolation] = []

    def bad(kind: str, message: str, **context: Any) -> None:
        out.append(InvariantViolation(kind, message, context))

    finish_times = list(result.finish_times)
    if nranks is not None and len(finish_times) != nranks:
        bad(
            "accounting",
            f"run reports {len(finish_times)} finish times for "
            f"{nranks} ranks",
            finish_times=len(finish_times), nranks=nranks,
        )
    makespan = result.makespan
    if not math.isfinite(makespan) or makespan < 0.0:
        bad("causality", f"makespan is {makespan!r}", makespan=makespan)
    for rank, t in enumerate(finish_times):
        if not math.isfinite(t) or t < 0.0:
            bad(
                "causality",
                f"rank {rank} finish time is {t!r}",
                rank=rank, finish_time=t,
            )
    slack = TOLERANCE * max(1.0, abs(makespan))
    for st in result.stats:
        for name in ("compute_time", "send_time", "recv_wait_time",
                     "bytes_sent", "bytes_received", "flops"):
            value = getattr(st, name)
            if not math.isfinite(value) or value < 0.0:
                bad(
                    "accounting",
                    f"rank {st.rank} has {name}={value!r}",
                    rank=st.rank, field=name, value=value,
                )
        if 0 <= st.rank < len(finish_times):
            finish = finish_times[st.rank]
            if abs(st.finish_time - finish) > slack:
                bad(
                    "accounting",
                    f"rank {st.rank} stats finish_time {st.finish_time!r} "
                    f"disagrees with run finish time {finish!r}",
                    rank=st.rank, stats_finish=st.finish_time, finish=finish,
                )
            if st.busy_time > finish + slack:
                bad(
                    "causality",
                    f"rank {st.rank} was busy for {st.busy_time!r}s but "
                    f"finished at {finish!r}s",
                    rank=st.rank, busy_time=st.busy_time, finish=finish,
                )
    if result.stale_pops > result.heap_pops:
        bad(
            "accounting",
            f"stale_pops {result.stale_pops} exceeds heap_pops "
            f"{result.heap_pops}",
            stale_pops=result.stale_pops, heap_pops=result.heap_pops,
        )
    if work is not None:
        credited = sum(st.flops for st in result.stats)
        if abs(credited - work) > TOLERANCE * max(1.0, abs(work)):
            bad(
                "conservation",
                f"credited flops {credited!r} != workload {work!r}",
                credited=credited, work=work,
            )
    if psi is not None:
        out += _psi_bound(psi)
    return out


def check_trace_invariants(
    records: Iterable[Any], makespan: float
) -> list[InvariantViolation]:
    """Virtual-time causality over a run's trace records.

    Every traced primitive must occupy a well-formed window: finite,
    ``0 <= start <= end``, and within the run (``end <= makespan``).  A
    network model that answers with out-of-order or retrograde times
    shows up here even when the engine's own cheap guards let it through.

    ``fault`` annotation records (the injector's fault track) are exempt
    from the makespan bound: they carry *scheduled* fault times, and a
    fault scheduled past the finish is inert, not acausal.
    """
    out: list[InvariantViolation] = []
    slack = TOLERANCE * max(1.0, abs(makespan))
    for record in records:
        start, end = record.start, record.end
        bound = math.inf if record.kind == "fault" else makespan
        if not (math.isfinite(start) and math.isfinite(end)):
            out.append(InvariantViolation(
                "causality",
                f"rank {record.rank} {record.kind} record has non-finite "
                f"window ({start!r}, {end!r})",
                {"rank": record.rank, "kind": record.kind,
                 "start": start, "end": end},
            ))
            continue
        if start < -slack or end < start - slack or end > bound + slack:
            out.append(InvariantViolation(
                "causality",
                f"rank {record.rank} {record.kind} record window "
                f"({start!r}, {end!r}) escapes the run [0, {makespan!r}]",
                {"rank": record.rank, "kind": record.kind,
                 "start": start, "end": end, "makespan": makespan},
            ))
    return out


def check_sweep_invariants(
    rows: Sequence[FaultSweepRow],
) -> list[InvariantViolation]:
    """Invariants over a fault-intensity sweep's rows.

    Every row's ψ lies in (0, 1], its makespan and C_eff are positive,
    and its makespan never beats the shared fault-free baseline; ψ is
    monotone non-increasing with severity.
    """
    out: list[InvariantViolation] = []
    ordered = sorted(rows, key=lambda r: r.severity)
    for row in ordered:
        out += _psi_bound(row.psi, severity=row.severity)
        for name in ("makespan", "c_eff"):
            value = getattr(row, name)
            if not math.isfinite(value) or value <= 0.0:
                out.append(InvariantViolation(
                    "accounting",
                    f"non-positive {name} {value!r} at severity "
                    f"{row.severity}",
                    {"severity": row.severity, name: value},
                ))
        out += _baseline_dominance(
            row.makespan, row.baseline_makespan, severity=row.severity
        )
    for milder, harsher in zip(ordered, ordered[1:]):
        out += _psi_monotone(
            milder.psi, harsher.psi,
            severity_milder=milder.severity, severity_harsher=harsher.severity,
        )
    return out


# -- scenario-level checks -----------------------------------------------------

@dataclass(frozen=True)
class CheckConfig:
    """What the oracle checks beyond the always-on invariants."""

    #: Severity scale factors for the ψ-monotonicity probe; each costs
    #: one extra faulted run (cache-friendly).  Empty disables it.
    monotonicity_factors: tuple[float, ...] = (0.5,)
    #: Cross-check serial == pool == cold cache == warm cache replay.
    #: Costs ~4 extra engine runs plus a process-pool spawn; campaigns
    #: sample it rather than paying it per scenario.
    bit_identity: bool = False


@dataclass
class ScenarioReport:
    """Everything the oracle learned about one scenario."""

    scenario: Scenario
    violations: list[InvariantViolation] = field(default_factory=list)
    psi: float | None = None
    makespan: float | None = None
    baseline_makespan: float | None = None
    checks: tuple[str, ...] = ()
    error: str | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_payload(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario.to_payload(),
            "scenario_hash": self.scenario.scenario_hash(),
            "ok": self.ok,
            "violations": [v.to_payload() for v in self.violations],
            "psi": self.psi,
            "makespan": self.makespan,
            "baseline_makespan": self.baseline_makespan,
            "checks": list(self.checks),
            "error": self.error,
        }


def run_scenario(
    scenario: Scenario,
    *,
    executor: Any = None,
    baseline: bool = True,
    tracer: Tracer | None = None,
    flight: Any = None,
) -> FaultyRun:
    """Execute one scenario; returns the full :class:`FaultyRun` surface.

    This is :func:`run_app_under_faults`: with an ``executor`` the
    untraced, unrecorded runs replay from its cache.
    """
    return run_app_under_faults(
        scenario.app, scenario.build_cluster(), scenario.n,
        scenario.schedule, baseline=baseline, tracer=tracer,
        seed=scenario.seed, flight=flight, executor=executor,
    )


def _crash_violation(exc: BaseException, stage: str) -> InvariantViolation:
    return InvariantViolation(
        "crash",
        f"{type(exc).__name__} during {stage}: {exc}",
        context={"stage": stage, "error_type": type(exc).__name__},
    )


def check_scenario(
    scenario: Scenario,
    config: CheckConfig | None = None,
    *,
    executor: Any = None,
) -> ScenarioReport:
    """Run ``scenario`` and check every configured invariant.

    The faulted run is always traced (so it runs in-process, uncached);
    ``executor`` serves the extra runs of the monotonicity probes.
    """
    cfg = config if config is not None else CheckConfig()
    report = ScenarioReport(scenario=scenario)
    checks: list[str] = ["run"]
    tracer = Tracer()
    try:
        faulty = run_scenario(scenario, tracer=tracer)
    except SimulationError as exc:
        report.violations.append(_crash_violation(exc, "faulted-run"))
        report.error = str(exc)
        report.checks = tuple(checks)
        return report

    report.makespan = faulty.makespan
    nranks = scenario.nranks

    # Fail-stop kills legitimately abandon work; conservation only binds
    # when every rank survives to finish its flops.
    failstop = any(
        c.is_failstop for c in scenario.schedule.all_crashes()
    ) or bool(scenario.schedule.losses())
    work = faulty.faulted.measurement.work

    if faulty.baseline is not None:
        checks.append("psi")
        report.psi = faulty.psi
        report.baseline_makespan = faulty.baseline.run.makespan
    checks.append("invariants:faulted")
    report.violations += check_invariants(
        faulty.faulted.run,
        work=None if failstop else work,
        psi=report.psi,
        nranks=nranks,
    )
    if faulty.baseline is not None:
        checks.append("invariants:baseline")
        report.violations += check_invariants(
            faulty.baseline.run, work=work, nranks=nranks,
        )
        checks.append("baseline-dominance")
        report.violations += _baseline_dominance(
            report.makespan, report.baseline_makespan
        )

    checks.append("trace-causality")
    report.violations += check_trace_invariants(
        tracer.records, faulty.makespan
    )

    if (
        cfg.monotonicity_factors
        and report.psi is not None
        and not scenario.schedule.is_empty
    ):
        for factor in cfg.monotonicity_factors:
            milder = scenario.schedule.scaled(factor)
            if milder == scenario.schedule:
                continue
            checks.append(f"monotonicity:{factor:g}")
            try:
                milder_run = run_scenario(
                    scenario.with_schedule(milder), executor=executor,
                )
            except SimulationError as exc:
                report.violations.append(
                    _crash_violation(exc, f"monotonicity-{factor:g}")
                )
                continue
            report.violations += _psi_monotone(
                milder_run.psi, report.psi, factor=factor
            )

    if cfg.bit_identity:
        checks.append("bit-identity")
        report.violations += check_bit_identity(scenario)

    report.checks = tuple(checks)
    return report


def _fingerprint(pair: tuple[Any, Any]) -> str:
    """Canonical bits of a (record, injector) outcome -- wall clock
    excluded (host timing, not simulated state)."""
    record, injector = pair
    payload = run_record_to_payload(record, injector)
    payload["run"].pop("wall_seconds", None)
    return json.dumps(payload, sort_keys=True)


def check_bit_identity(scenario: Scenario) -> list[InvariantViolation]:
    """serial == pool == cold-cache == warm-replay, bit for bit.

    Runs the scenario's (baseline, faulted) point pair through four
    executor configurations and compares full result fingerprints
    (finish times, per-rank stats, measurement, fault state).  Any
    divergence is a determinism bug in the engine, the process pool or
    the cache serialization -- exactly the regressions that silently
    poison cached sweeps.
    """
    import tempfile

    cluster = scenario.build_cluster()
    points = [
        SweepPoint.make(scenario.app, cluster, scenario.n,
                        seed=scenario.seed),
        SweepPoint.make(scenario.app, cluster, scenario.n,
                        schedule=scenario.schedule, seed=scenario.seed),
    ]
    serial = [
        _fingerprint(p) for p in SweepExecutor().run_faulted(points)
    ]
    legs: list[tuple[str, list[str]]] = []
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-cache-") as tmp:
        cache = RunCache(tmp)
        cold = SweepExecutor(cache=cache).run_faulted(points)
        legs.append(("cold-cache", [_fingerprint(p) for p in cold]))
        warm = SweepExecutor(cache=cache).run_faulted(points)
        legs.append(("warm-replay", [_fingerprint(p) for p in warm]))
    pool = SweepExecutor(jobs=2).run_faulted(points)
    legs.append(("pool-jobs2", [_fingerprint(p) for p in pool]))

    out: list[InvariantViolation] = []
    labels = ["baseline", "faulted"]
    for leg_name, fingerprints in legs:
        for label, want, got in zip(labels, serial, fingerprints):
            if want != got:
                out.append(InvariantViolation(
                    "bit-identity",
                    f"{leg_name} diverged from the serial path on the "
                    f"{label} run of {scenario.describe()}",
                    context={"leg": leg_name, "point": label},
                ))
    return out


def dump_violation(
    report: ScenarioReport,
    directory: str | Path = ".repro/fuzz",
    flight_capacity: int = 4096,
) -> Path:
    """Persist a violation as CI-uploadable artifacts.

    Writes ``violation-<hash>.json`` (scenario + full violation list)
    and, when the faulted run can be re-executed, a flight-recorder ring
    dump ``violation-<hash>-flight.json`` alongside it for post-mortem.
    Returns the path of the violation document.
    """
    from ..experiments.persistence import write_json_document
    from ..sim.flight import FlightRecorder

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"violation-{report.scenario.scenario_hash()}"
    doc = directory / f"{stem}.json"
    write_json_document(
        doc, "fuzz-violation", report.to_payload(),
        metadata={"scenario_hash": report.scenario.scenario_hash()},
    )
    flight = FlightRecorder(
        capacity=flight_capacity, out_dir=directory, watchdog=None
    )
    try:
        run_scenario(report.scenario, baseline=False, flight=flight)
    except Exception:
        pass  # the dump below still captures the ring
    try:
        flight.dump(
            {"trigger": "fuzz-violation", "scenario": report.scenario.describe()},
            context={"violation_document": doc.name},
        )
    except Exception:
        pass
    return doc
