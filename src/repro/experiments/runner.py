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
from functools import partial
from typing import Any, Callable, Iterator

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
from ..obs.analysis import OverheadDecomposition, overhead_decomposition
from ..obs.streaming import warn
from ..sim.engine import RunResult
from ..sim.trace import Tracer


@dataclass
class RunRecord:
    """One application execution: the metric view plus raw simulator data.

    The record carries every fact Theorem 1 reads off a run: ``marked``
    is the per-rank marked speeds C_i the run was simulated at
    (``measurement.marked_speed`` is their total C) and
    ``compute_efficiency`` the fraction f of them it achieved; ``W`` and
    ``T`` are in ``measurement``.  ``marked`` is ``None`` only on
    records built by hand.
    """

    measurement: Measurement
    run: RunResult
    app_result: Any = None
    compute_efficiency: float = 1.0
    marked: SystemMarkedSpeed | None = None

    @property
    def speed_efficiency(self) -> float:
        return self.measurement.speed_efficiency

    def decomposition(self) -> OverheadDecomposition:
        """The run's makespan split into ``W / (f C)`` and ``T_o``, at
        the run's own W, C and f."""
        m = self.measurement
        return overhead_decomposition(
            work=m.work,
            marked_speed=m.marked_speed,
            makespan=self.run.makespan,
            compute_efficiency=self.compute_efficiency,
        )


def marked_speed_of(
    cluster: ClusterSpec, marked: SystemMarkedSpeed | None = None
) -> SystemMarkedSpeed:
    """The marked speed a run on ``cluster`` is simulated at: ``marked``
    when given, else the cluster's measured one (cached per processor
    type)."""
    return marked if marked is not None else measure_cluster(cluster)


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
    :meth:`warn_if_dropped` prints it once as a stderr warning, so a
    truncated trace is never silent.
    """

    def __init__(self, limit: int = 1_000_000):
        self.limit = limit
        self.runs: list[TraceRun] = []
        self._warned = False

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
        """Warn (once per collector) when records were dropped; returns
        the dropped count."""
        dropped = self.dropped
        if dropped and not self._warned:
            self._warned = True
            warn("trace.records_dropped", dropped=dropped,
                 limit=self.limit, runs=len(self.runs))
        return dropped


_ACTIVE_COLLECTOR: TraceCollector | None = None


@contextmanager
def collect_traces(
    collector: TraceCollector | None = None,
) -> Iterator[TraceCollector]:
    """Trace every application run executed inside the ``with`` block.

    Every ``run_app``/``run_ge``/... call registers a tracer on the
    collector, labelled with app, problem size and cluster name: its own
    ``tracer=`` when it passes one, a fresh one otherwise.  Yields
    the collector (a new one when none is given).  Reentrant: the previous
    collector is restored on exit.  On exit the collector warns (once,
    on stderr) when any run overflowed its trace limit.
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


# -- run-ledger recording ------------------------------------------------------

_ACTIVE_LEDGER: Any = None
_LEDGER_WARNED = False  # the innermost block warned of a failed write


@contextmanager
def ledger_recording(ledger: Any = None) -> Iterator[Any]:
    """Record every application run inside the ``with`` block in a ledger.

    ``ledger`` is a :class:`repro.obs.RunLedger` (a fresh one at the
    default root when omitted).  Every ``run_app``/``run_ge``/... call
    appends one run record; see :mod:`repro.obs.ledger`.  An unwritable
    ledger fails no run: the block warns ``sweep.ledger_write_failed``
    once.  Reentrant like :func:`collect_traces`.
    """
    global _ACTIVE_LEDGER, _LEDGER_WARNED
    if ledger is None:
        from ..obs.ledger import RunLedger

        ledger = RunLedger()
    previous = _ACTIVE_LEDGER, _LEDGER_WARNED
    _ACTIVE_LEDGER, _LEDGER_WARNED = ledger, False
    try:
        yield ledger
    finally:
        _ACTIVE_LEDGER, _LEDGER_WARNED = previous


#: Default collective algorithms for MM: the bulk B replication uses the
#: shared medium's native broadcast (one transmission); GE keeps flat
#: unicast broadcasts, matching the paper's measured T_bcast ~ p (see
#: DESIGN.md section 2 and the collective-algorithm ablation bench).
MM_COLLECTIVES = CollectiveConfig(bcast="ethernet")


def default_stencil_sweeps(n: int) -> int:
    """Sweep count used by scalability studies: proportional to N, so the
    stencil workload grows like N^3 -- the same order as GE/MM, keeping
    the three combinations comparable under the metric."""
    return max(1, n // 4)


@dataclass(frozen=True)
class App:
    """The per-application facts a run needs, defined once.

    ``options`` is the app's options class and ``program`` builds its SPMD
    program from an instance; ``workload(options)`` is the flop count W
    and ``compute_efficiency`` the achievable fraction f of marked speed
    the runner applies (Theorem 1's ideal compute term divides by it).
    ``collectives`` is the default :class:`CollectiveConfig`; ``extras``
    maps N to the app's own runner keywords and their defaults.
    """

    options: type
    program: Callable[[Any], Any]
    workload: Callable[[Any], float]
    compute_efficiency: float
    collectives: CollectiveConfig | None = None
    extras: Callable[[int], dict[str, Any]] = lambda n: {}


#: Application registry used by runs, sweeps, faults, fuzzing and the CLI.
APPLICATIONS: dict[str, App] = {
    "ge": App(GEOptions, make_ge_program, lambda o: ge_workload(o.n),
              GE_COMPUTE_EFFICIENCY),
    "mm": App(MMOptions, make_mm_program, lambda o: mm_workload(o.n),
              MM_COMPUTE_EFFICIENCY, MM_COLLECTIVES),
    "stencil": App(
        StencilOptions, make_stencil_program,
        lambda o: stencil_workload(o.n, o.sweeps, o.residual_every),
        STENCIL_COMPUTE_EFFICIENCY,
        extras=lambda n: {"sweeps": default_stencil_sweeps(n),
                          "residual_every": 0},
    ),
    # Problem sizes must be powers of two.
    "fft": App(FFTOptions, make_fft_program, lambda o: fft_workload(o.n),
               FFT_COMPUTE_EFFICIENCY),
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


_APP_DEFAULT: Any = object()


def run_app(
    app: str,
    cluster: ClusterSpec,
    n: int,
    *,
    numeric: bool = False,
    seed: int = 0,
    marked: SystemMarkedSpeed | None = None,
    tracer: Tracer | None = None,
    launcher: Any = None,
    flight: Any = None,
    collectives: CollectiveConfig | None = _APP_DEFAULT,
    compute_efficiency: float | None = None,
    **extras: Any,
) -> RunRecord:
    """Run an application, by name or alias, at problem size ``n``.

    ``collectives`` and ``compute_efficiency`` default to the app's
    registry entry (an explicit ``collectives=None`` means flat
    collectives); ``extras`` are the app's own keywords (the stencil's
    ``sweeps`` and ``residual_every``).  ``launcher`` replaces
    :func:`~repro.mpi.communicator.mpi_run` (e.g. a fault launcher).
    """
    name = resolve_app(app)
    entry = APPLICATIONS[name]
    app_kwargs = entry.extras(n)
    unknown = extras.keys() - app_kwargs.keys()
    if unknown:
        raise TypeError(f"run_{name}() got an unexpected keyword argument "
                        f"{min(unknown)!r}")
    app_kwargs.update((k, v) for k, v in extras.items() if v is not None)
    if collectives is _APP_DEFAULT:
        collectives = entry.collectives
    if compute_efficiency is None:
        compute_efficiency = entry.compute_efficiency
    marked = marked_speed_of(cluster, marked)
    label = f"{name} N={n} on {cluster.name}"
    collector = _ACTIVE_COLLECTOR
    if collector is not None:
        # An explicit tracer is kept and also exported with the others.
        if tracer is None:
            tracer = collector.tracer_for(label)
        else:
            collector.runs.append(TraceRun(label, tracer))
    options = entry.options(n=n, speeds=tuple(marked.speeds),
                            numeric=numeric, seed=seed, **app_kwargs)
    run = (launcher or mpi_run)(
        cluster.nranks,
        cluster.build_network(),
        [s * compute_efficiency for s in marked.speeds],
        entry.program(options),
        config=collectives,
        tracer=tracer,
        **({"flight": flight} if flight is not None else {}),
    )
    measurement = Measurement(
        work=entry.workload(options),
        time=run.makespan,
        marked_speed=marked.total,
        problem_size=n,
        label=cluster.name,
    )
    record = RunRecord(measurement, run, run.return_values[0],
                       compute_efficiency, marked)
    _record_in_ledger(name, cluster, record)
    return record


def _record_in_ledger(app: str, cluster: ClusterSpec, record: RunRecord,
                      **extra: Any) -> None:
    """Append one run to the active ledger, if any; never fails a run."""
    global _LEDGER_WARNED
    try:
        if _ACTIVE_LEDGER is not None:
            _ACTIVE_LEDGER.record_run(app, cluster, record, source="run",
                                      **extra)
    except OSError as exc:
        if not _LEDGER_WARNED:
            _LEDGER_WARNED = True
            warn("sweep.ledger_write_failed", ledger=_ACTIVE_LEDGER.root,
                 error=exc)


#: Per-application spellings of :func:`run_app`.
run_ge = partial(run_app, "ge")
run_mm = partial(run_app, "mm")
run_fft = partial(run_app, "fft")
run_stencil = partial(run_app, "stencil")
