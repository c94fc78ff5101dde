"""Execution of algorithm-system combinations and metric bookkeeping.

This is the experiment driver's lowest layer: given a cluster, it measures
the marked speed (once), builds the application program, runs it on the
simulation engine, and wraps the outcome in a :class:`RunRecord` (defined
below) pairing the raw :class:`~repro.sim.engine.RunResult` with a
:class:`~repro.core.types.Measurement` whose ``(W, T, C)`` triple feeds
every scalability metric.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from ..apps.gaussian import GE_COMPUTE_EFFICIENCY, GEOptions, make_ge_program
from ..apps.matmul import MM_COMPUTE_EFFICIENCY, MMOptions, make_mm_program
from ..apps.fft import (
    FFT_COMPUTE_EFFICIENCY,
    FFTOptions,
    fft_workload,
    make_fft_program,
)
from ..apps.stencil import (
    STENCIL_COMPUTE_EFFICIENCY,
    StencilOptions,
    make_stencil_program,
    stencil_workload,
)
from ..apps.workload import ge_workload, mm_workload
from ..core.marked_speed import SystemMarkedSpeed
from ..core.types import Measurement
from ..machine.cluster import ClusterSpec
from ..mpi.communicator import CollectiveConfig, mpi_run
from ..npb.runner import measure_cluster
from ..sim.engine import RunResult
from ..sim.trace import Tracer


@dataclass
class RunRecord:
    """One application execution: the metric view plus raw simulator data."""

    measurement: Measurement
    run: RunResult
    app_result: Any = None

    @property
    def speed_efficiency(self) -> float:
        return self.measurement.speed_efficiency


def marked_speed_of(cluster: ClusterSpec) -> SystemMarkedSpeed:
    """Measured marked speed of a cluster (cached per processor type)."""
    return measure_cluster(cluster)


# -- run tracing --------------------------------------------------------------

@dataclass
class TraceRun:
    """One traced execution captured by a :class:`TraceCollector`."""

    label: str
    tracer: Tracer


class TraceCollector:
    """Gathers a fresh :class:`Tracer` per application run.

    Activated with :func:`collect_traces`; the CLI's ``--trace-out`` flag
    uses it to export a Chrome trace of every simulation a table/figure
    command executed (one trace-viewer process per run).

    Each tracer stops *storing* records at ``limit`` but keeps counting;
    :attr:`dropped` totals the overflow across runs and
    :meth:`warn_if_dropped` surfaces it once through the structured
    logger, so a truncated trace is never silent.
    """

    def __init__(self, limit: int = 1_000_000, log: Any = None):
        self.limit = limit
        self.log = log
        self.runs: list[TraceRun] = []

    def tracer_for(self, label: str) -> Tracer:
        """Create, register and return the tracer for one labelled run."""
        tracer = Tracer(limit=self.limit)
        self.runs.append(TraceRun(label, tracer))
        return tracer

    @property
    def dropped(self) -> int:
        """Records dropped past the per-run limit, totalled over all runs."""
        return sum(run.tracer.dropped for run in self.runs)

    def warn_if_dropped(self) -> int:
        """Emit a once-per-collector structured warning when records were
        dropped; returns the dropped count."""
        dropped = self.dropped
        if dropped:
            log = self.log
            if log is None:
                from ..obs.structlog import stderr_logger

                log = self.log = stderr_logger()
            log.warn_once(
                "trace.records_dropped",
                "trace.records_dropped",
                dropped=dropped,
                limit=self.limit,
                runs=len(self.runs),
            )
        return dropped


_ACTIVE_COLLECTOR: TraceCollector | None = None


@contextmanager
def collect_traces(
    collector: TraceCollector | None = None,
) -> Iterator[TraceCollector]:
    """Trace every application run executed inside the ``with`` block.

    Runs that pass an explicit ``tracer=`` keep it; every other
    ``run_app``/``run_ge``/... call gets a fresh tracer registered on the
    collector, labelled with app, problem size and cluster name.  Yields
    the collector (a new one when none is given).  Reentrant: the previous
    collector is restored on exit.  On exit the collector warns (once,
    via the structured logger) when any run overflowed its trace limit.
    """
    global _ACTIVE_COLLECTOR
    active = collector if collector is not None else TraceCollector()
    previous = _ACTIVE_COLLECTOR
    _ACTIVE_COLLECTOR = active
    try:
        yield active
    finally:
        _ACTIVE_COLLECTOR = previous
        active.warn_if_dropped()


def _resolve_tracer(tracer: Tracer | None, label: str) -> Tracer | None:
    """Explicit tracer wins; otherwise ask the active collector, if any."""
    if tracer is not None or _ACTIVE_COLLECTOR is None:
        return tracer
    return _ACTIVE_COLLECTOR.tracer_for(label)


# -- run-ledger recording ------------------------------------------------------

_ACTIVE_LEDGER: Any = None


@contextmanager
def ledger_recording(ledger: Any = None) -> Iterator[Any]:
    """Record every application run inside the ``with`` block in a ledger.

    ``ledger`` is a :class:`repro.obs.RunLedger` (a fresh one at the
    default root when omitted).  Every ``run_app``/``run_ge``/... call
    appends one run record; see :mod:`repro.obs.ledger`.  Reentrant like
    :func:`collect_traces`.
    """
    global _ACTIVE_LEDGER
    if ledger is None:
        from ..obs.ledger import RunLedger

        ledger = RunLedger()
    previous = _ACTIVE_LEDGER
    _ACTIVE_LEDGER = ledger
    try:
        yield ledger
    finally:
        _ACTIVE_LEDGER = previous


def _ledger_record(app: str, cluster: ClusterSpec, record: "RunRecord") -> None:
    """Append the run to the active ledger, if one is recording."""
    if _ACTIVE_LEDGER is not None:
        _ACTIVE_LEDGER.record_run(app, cluster, record, source="run")


def run_ge(
    cluster: ClusterSpec,
    n: int,
    numeric: bool = False,
    compute_efficiency: float = GE_COMPUTE_EFFICIENCY,
    collectives: CollectiveConfig | None = None,
    marked: SystemMarkedSpeed | None = None,
    tracer: Tracer | None = None,
    seed: int = 0,
    launcher: Any = None,
    flight: Any = None,
) -> RunRecord:
    """Run Gaussian elimination of rank ``n`` on a cluster configuration."""
    marked = marked if marked is not None else marked_speed_of(cluster)
    tracer = _resolve_tracer(tracer, f"ge N={n} on {cluster.name}")
    options = GEOptions(
        n=n, speeds=tuple(marked.speeds), numeric=numeric, seed=seed
    )
    program = make_ge_program(options)
    effective = [s * compute_efficiency for s in marked.speeds]
    run = (launcher or mpi_run)(
        cluster.nranks,
        cluster.build_network(),
        effective,
        program,
        config=collectives,
        tracer=tracer,
        **({"flight": flight} if flight is not None else {}),
    )
    measurement = Measurement(
        work=ge_workload(n),
        time=run.makespan,
        marked_speed=marked.total,
        problem_size=n,
        label=cluster.name,
    )
    record = RunRecord(measurement, run, run.return_values[0])
    _ledger_record("ge", cluster, record)
    return record


#: Default collective algorithms for MM: the bulk B replication uses the
#: shared medium's native broadcast (one transmission); GE keeps flat
#: unicast broadcasts, matching the paper's measured T_bcast ~ p (see
#: DESIGN.md section 2 and the collective-algorithm ablation bench).
MM_COLLECTIVES = CollectiveConfig(bcast="ethernet")


def run_mm(
    cluster: ClusterSpec,
    n: int,
    numeric: bool = False,
    compute_efficiency: float = MM_COMPUTE_EFFICIENCY,
    collectives: CollectiveConfig | None = MM_COLLECTIVES,
    marked: SystemMarkedSpeed | None = None,
    tracer: Tracer | None = None,
    seed: int = 0,
    launcher: Any = None,
    flight: Any = None,
) -> RunRecord:
    """Run matrix multiplication of rank ``n`` on a cluster configuration."""
    marked = marked if marked is not None else marked_speed_of(cluster)
    tracer = _resolve_tracer(tracer, f"mm N={n} on {cluster.name}")
    options = MMOptions(
        n=n, speeds=tuple(marked.speeds), numeric=numeric, seed=seed
    )
    program = make_mm_program(options)
    effective = [s * compute_efficiency for s in marked.speeds]
    run = (launcher or mpi_run)(
        cluster.nranks,
        cluster.build_network(),
        effective,
        program,
        config=collectives,
        tracer=tracer,
        **({"flight": flight} if flight is not None else {}),
    )
    measurement = Measurement(
        work=mm_workload(n),
        time=run.makespan,
        marked_speed=marked.total,
        problem_size=n,
        label=cluster.name,
    )
    record = RunRecord(measurement, run, run.return_values[0])
    _ledger_record("mm", cluster, record)
    return record


def run_fft(
    cluster: ClusterSpec,
    n: int,
    numeric: bool = False,
    compute_efficiency: float = FFT_COMPUTE_EFFICIENCY,
    collectives: CollectiveConfig | None = None,
    marked: SystemMarkedSpeed | None = None,
    tracer: Tracer | None = None,
    seed: int = 0,
    launcher: Any = None,
    flight: Any = None,
) -> RunRecord:
    """Run the distributed 2-D FFT (``n`` must be a power of two)."""
    marked = marked if marked is not None else marked_speed_of(cluster)
    tracer = _resolve_tracer(tracer, f"fft N={n} on {cluster.name}")
    options = FFTOptions(
        n=n, speeds=tuple(marked.speeds), numeric=numeric, seed=seed
    )
    program = make_fft_program(options)
    effective = [s * compute_efficiency for s in marked.speeds]
    run = (launcher or mpi_run)(
        cluster.nranks,
        cluster.build_network(),
        effective,
        program,
        config=collectives,
        tracer=tracer,
        **({"flight": flight} if flight is not None else {}),
    )
    measurement = Measurement(
        work=fft_workload(n),
        time=run.makespan,
        marked_speed=marked.total,
        problem_size=n,
        label=cluster.name,
    )
    record = RunRecord(measurement, run, run.return_values[0])
    _ledger_record("fft", cluster, record)
    return record


def default_stencil_sweeps(n: int) -> int:
    """Sweep count used by scalability studies: proportional to N, so the
    stencil workload grows like N^3 -- the same order as GE/MM, keeping
    the three combinations comparable under the metric."""
    return max(1, n // 4)


def run_stencil(
    cluster: ClusterSpec,
    n: int,
    sweeps: int | None = None,
    residual_every: int = 0,
    numeric: bool = False,
    compute_efficiency: float = STENCIL_COMPUTE_EFFICIENCY,
    collectives: CollectiveConfig | None = None,
    marked: SystemMarkedSpeed | None = None,
    tracer: Tracer | None = None,
    seed: int = 0,
    launcher: Any = None,
    flight: Any = None,
) -> RunRecord:
    """Run the Jacobi stencil on an ``n x n`` grid for ``sweeps`` sweeps."""
    marked = marked if marked is not None else marked_speed_of(cluster)
    tracer = _resolve_tracer(tracer, f"stencil N={n} on {cluster.name}")
    sweeps = default_stencil_sweeps(n) if sweeps is None else sweeps
    options = StencilOptions(
        n=n, sweeps=sweeps, speeds=tuple(marked.speeds),
        residual_every=residual_every, numeric=numeric, seed=seed,
    )
    program = make_stencil_program(options)
    effective = [s * compute_efficiency for s in marked.speeds]
    run = (launcher or mpi_run)(
        cluster.nranks,
        cluster.build_network(),
        effective,
        program,
        config=collectives,
        tracer=tracer,
        **({"flight": flight} if flight is not None else {}),
    )
    measurement = Measurement(
        work=stencil_workload(n, sweeps, residual_every),
        time=run.makespan,
        marked_speed=marked.total,
        problem_size=n,
        label=cluster.name,
    )
    record = RunRecord(measurement, run, run.return_values[0])
    _ledger_record("stencil", cluster, record)
    return record


#: Application registry used by sweeps and the CLI.
APPLICATIONS = {
    "ge": run_ge,
    "mm": run_mm,
    "stencil": run_stencil,
    "fft": run_fft,  # problem sizes must be powers of two
}

#: Long-form names accepted anywhere an application name is (CLI, run_app).
APP_ALIASES = {
    "gaussian": "ge",
    "gauss": "ge",
    "matmul": "mm",
    "jacobi": "stencil",
}


def resolve_app(app: str) -> str:
    """Canonical registry key for an application name or alias."""
    app = APP_ALIASES.get(app, app)
    if app not in APPLICATIONS:
        raise KeyError(
            f"unknown application {app!r}; available: "
            f"{sorted(APPLICATIONS)} (aliases: {sorted(APP_ALIASES)})"
        )
    return app


def run_app(app: str, cluster: ClusterSpec, n: int, **kwargs) -> RunRecord:
    """Dispatch by application name or alias ('ge'/'gaussian', 'mm'/'matmul',
    'stencil'/'jacobi', 'fft')."""
    return APPLICATIONS[resolve_app(app)](cluster, n, **kwargs)
