"""The invariant oracle: run a scenario, assert every property the paper
relies on.

``check_scenario`` executes one :class:`~.scenario.Scenario` and returns
a :class:`ScenarioReport` listing every broken invariant (empty list ==
the scenario passes):

* **crash** -- the engine raised (deadlock, protocol violation, ...) on
  a scenario the generator guarantees is structurally valid;
* **causality / accounting / conservation / psi-bounds** -- delegated to
  :func:`repro.faults.analysis.check_invariants` and
  :func:`~repro.faults.analysis.check_trace_invariants` over the faulted
  run, its baseline, and the faulted run's trace;
* **monotonicity** -- ψ of the full-severity schedule must not exceed ψ
  of the same schedule scaled milder
  (:meth:`~repro.faults.schedule.FaultSchedule.scaled`);
* **bit-identity** -- the serial path, a jobs=2 process pool, a
  cold cache write and a warm cache replay must all produce the *same
  bits* (finish times, per-rank stats, measurement) for the same
  scenario.

Wrapper scenarios (a registered hostile network model) always run the
direct path: the wrapper is a live object the cache could never key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from ..experiments.executor import (
    RunCache,
    SweepExecutor,
    SweepPoint,
    run_record_to_payload,
)
from ..faults.analysis import (
    InvariantViolation,
    check_invariants,
    check_trace_invariants,
)
from ..faults.injection import FaultInjector
from ..faults.run import FaultyRun, faulty_mpi_run, run_app_under_faults
from ..experiments.runner import run_app
from ..sim.errors import SimulationError
from ..sim.trace import Tracer
from .scenario import Scenario, resolve_network_wrapper

import json


@dataclass(frozen=True)
class CheckConfig:
    """What the oracle checks and how hard it tries."""

    #: Attach a tracer to the faulted run and check per-primitive
    #: causality windows (forces the direct, uncached path).
    trace: bool = True
    #: Severity scale factors for the ψ-monotonicity probe; each costs
    #: one extra faulted run (cache-friendly).  Empty disables it.
    monotonicity_factors: tuple[float, ...] = (0.5,)
    #: Cross-check serial == pool == cold cache == warm cache replay.
    #: Costs ~4 extra engine runs plus a process-pool spawn; campaigns
    #: sample it rather than paying it per scenario.
    bit_identity: bool = False
    tolerance: float = 1e-9


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


def _wrapping_launcher(schedule, injector, wrap, flight=None):
    """A run_app launcher that applies a hostile network wrapper before
    the ordinary fault-injection path."""

    def launch(
        nranks, network, flops_per_second, program,
        config=None, tracer=None, max_events=50_000_000, flight=flight,
    ):
        return faulty_mpi_run(
            nranks, wrap(network), flops_per_second, program, schedule,
            config=config, injector=injector, tracer=tracer,
            max_events=max_events, flight=flight,
        )

    return launch


def run_scenario(
    scenario: Scenario,
    *,
    executor: Any = None,
    baseline: bool = True,
    tracer: Tracer | None = None,
    flight: Any = None,
) -> FaultyRun:
    """Execute one scenario; returns the full :class:`FaultyRun` surface.

    With an ``executor`` (and no wrapper/tracer/flight) the baseline and
    faulted runs go through :class:`SweepExecutor` points, so repeated
    scenarios replay from the run cache.  Wrapper scenarios and traced
    runs always execute directly in-process.
    """
    cluster = scenario.build_cluster()
    scenario.schedule.validate_for(cluster.nranks)
    if scenario.network_wrapper is None:
        if executor is not None and tracer is None and flight is None:
            return _run_via_executor(scenario, cluster, executor, baseline)
        return run_app_under_faults(
            scenario.app, cluster, scenario.n, scenario.schedule,
            baseline=baseline, tracer=tracer,
            seed=scenario.seed, flight=flight,
        )
    wrap = resolve_network_wrapper(scenario.network_wrapper)
    injector = FaultInjector(scenario.schedule)
    base = None
    if baseline:
        base = run_app(scenario.app, cluster, scenario.n, seed=scenario.seed)
    faulted = run_app(
        scenario.app, cluster, scenario.n, tracer=tracer, seed=scenario.seed,
        launcher=_wrapping_launcher(
            scenario.schedule, injector, wrap, flight=flight
        ),
    )
    return FaultyRun(
        scenario.app, cluster, scenario.schedule, injector, faulted, base
    )


def _run_via_executor(scenario, cluster, executor, baseline):
    points = []
    if baseline:
        points.append(SweepPoint.make(
            scenario.app, cluster, scenario.n, seed=scenario.seed,
        ))
    points.append(SweepPoint.make(
        scenario.app, cluster, scenario.n,
        schedule=scenario.schedule, seed=scenario.seed,
    ))
    pairs = executor.run_faulted(points)
    faulted, injector = pairs[-1]
    if injector is None:
        injector = FaultInjector(scenario.schedule)
    return FaultyRun(
        scenario.app, cluster, scenario.schedule, injector, faulted,
        pairs[0][0] if baseline else None,
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
    """Run ``scenario`` and check every configured invariant."""
    cfg = config if config is not None else CheckConfig()
    report = ScenarioReport(scenario=scenario)
    checks: list[str] = ["run"]
    tracer = Tracer() if cfg.trace else None
    try:
        faulty = run_scenario(
            scenario,
            tracer=tracer,
            executor=None if (cfg.trace or scenario.network_wrapper)
            else executor,
        )
    except SimulationError as exc:
        report.violations.append(_crash_violation(exc, "faulted-run"))
        report.error = str(exc)
        report.checks = tuple(checks)
        return report

    report.makespan = faulty.makespan
    report.baseline_makespan = (
        faulty.baseline.run.makespan if faulty.baseline is not None else None
    )
    tol = cfg.tolerance
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
    checks.append("invariants:faulted")
    report.violations.extend(check_invariants(
        faulty.faulted.run,
        work=None if failstop else work,
        psi=report.psi,
        nranks=nranks,
        tolerance=tol,
    ))
    if faulty.baseline is not None:
        checks.append("invariants:baseline")
        report.violations.extend(check_invariants(
            faulty.baseline.run, work=work, nranks=nranks, tolerance=tol,
        ))
        # Injected faults can only add overhead: a faulted run that beats
        # its fault-free baseline means time flowed backwards somewhere
        # (e.g. a network model answering before the sender finished).
        checks.append("baseline-dominance")
        slack = tol * max(1.0, abs(report.baseline_makespan))
        if report.makespan < report.baseline_makespan - slack:
            report.violations.append(InvariantViolation(
                "monotonicity",
                f"faulted run finished before its fault-free baseline: "
                f"T'={report.makespan!r} < T={report.baseline_makespan!r}",
                context={
                    "makespan": report.makespan,
                    "baseline_makespan": report.baseline_makespan,
                },
            ))

    if tracer is not None:
        checks.append("trace-causality")
        report.violations.extend(check_trace_invariants(
            tracer.records, faulty.makespan, tolerance=tol,
        ))

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
            psi_milder = milder_run.psi
            if psi_milder < report.psi - tol:
                report.violations.append(InvariantViolation(
                    "monotonicity",
                    f"psi increased under *milder* faults: full-severity "
                    f"psi={report.psi!r} > psi={psi_milder!r} at scale "
                    f"{factor:g}",
                    context={
                        "factor": factor,
                        "psi_full": report.psi,
                        "psi_milder": psi_milder,
                    },
                ))

    if cfg.bit_identity and scenario.network_wrapper is None:
        checks.append("bit-identity")
        report.violations.extend(
            check_bit_identity(scenario, tolerance=tol)
        )

    report.checks = tuple(checks)
    return report


def _fingerprint(pair: tuple[Any, Any]) -> str:
    """Canonical bits of a (record, injector) outcome -- wall clock
    excluded (host timing, not simulated state)."""
    record, injector = pair
    payload = run_record_to_payload(record, injector)
    payload["run"].pop("wall_seconds", None)
    return json.dumps(payload, sort_keys=True)


def check_bit_identity(
    scenario: Scenario, tolerance: float = 1e-9
) -> list[InvariantViolation]:
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
    except SimulationError:
        pass  # the error dump below still captures the ring
    except Exception:
        pass
    try:
        flight.dump(
            {"trigger": "fuzz-violation", "scenario": report.scenario.describe()},
            context={"violation_document": doc.name},
        )
    except Exception:
        pass
    return doc
