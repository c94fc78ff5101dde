"""Drivers regenerating every table of the paper's evaluation (section 4).

Each ``table*``/``study`` function returns structured rows; the benchmark
harness and CLI render them with :mod:`repro.experiments.report`.  The
figure-series drivers live in :mod:`repro.experiments.figures`.

The expensive search (required rank at the target speed-efficiency,
Tables 3-5) is *hybrid*: the section-4.5 analytic model predicts the rank,
and the simulator bisects inside a bracket around the prediction -- the
same physics as brute-force search at a fraction of the runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from ..apps.gaussian import GE_COMPUTE_EFFICIENCY
from ..apps.matmul import MM_COMPUTE_EFFICIENCY
from ..apps.fft import FFT_COMPUTE_EFFICIENCY
from ..apps.stencil import STENCIL_COMPUTE_EFFICIENCY, stencil_workload
from ..apps.workload import ge_workload, mm_workload
from ..core.condition import required_problem_size
from ..core.isospeed_efficiency import ScalabilityStudy
from ..core.marked_speed import NodeMarkedSpeed
from ..core.prediction import PerformanceModel, predict_required_size
from ..core.types import (
    Measurement,
    MetricError,
    ScalabilityCurve,
    ScalabilityPoint,
)
from ..machine.cluster import ClusterSpec
from ..machine.sunwulf import (
    PAPER_NODE_COUNTS,
    SERVER_CPU,
    SUNBLADE_CPU,
    V210_CPU,
    ge_configuration,
    mm_configuration,
)
from ..npb.runner import measure_node
from ..overhead.fit import fit_machine_parameters
from ..overhead.model import (
    FFTOverheadModel,
    GEOverheadModel,
    MachineParameters,
    MMOverheadModel,
    StencilOverheadModel,
)
from .runner import RunRecord, marked_speed_of, run_app

#: Target speed-efficiencies of the paper's studies.
GE_TARGET_EFFICIENCY = 0.3
MM_TARGET_EFFICIENCY = 0.2


# ---------------------------------------------------------------------------
# Table 1 -- marked speed of Sunwulf node types
# ---------------------------------------------------------------------------

def table1_marked_speeds() -> list[NodeMarkedSpeed]:
    """Marked speed of the three Sunwulf processor types (Mflops), measured
    by averaging the benchmark suite (section 4.3)."""
    return [
        measure_node(SERVER_CPU),
        measure_node(V210_CPU),
        measure_node(SUNBLADE_CPU),
    ]


# ---------------------------------------------------------------------------
# Table 2 -- GE on two nodes: W, T, S, E_S across matrix sizes
# ---------------------------------------------------------------------------

DEFAULT_TABLE2_SIZES = (100, 150, 200, 250, 310, 400, 500)


def table2_ge_two_nodes(
    sizes: tuple[int, ...] = DEFAULT_TABLE2_SIZES,
    network_kind: str = "bus",
) -> list[Measurement]:
    """Workload, execution time, achieved speed and speed-efficiency of GE
    at several matrix sizes on the two-node configuration."""
    cluster = ge_configuration(2, network_kind)
    marked = marked_speed_of(cluster)
    return [
        run_app("ge", cluster, n, marked=marked).measurement for n in sizes
    ]


# ---------------------------------------------------------------------------
# Tables 3/4 -- required rank at E_S = 0.3 and GE scalability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RequiredRankRow:
    """One row of Table 3 / Table 5: a configuration's iso-efficient point."""

    nodes: int
    nranks: int
    rank_n: int
    workload: float
    marked_speed: float  # flops/s
    efficiency: float
    measurement: Measurement

    @property
    def marked_mflops(self) -> float:
        return self.marked_speed / 1e6


def _ge_model(
    cluster: ClusterSpec,
    params: MachineParameters,
    compute_efficiency: float,
) -> PerformanceModel:
    marked = marked_speed_of(cluster)
    overhead = GEOverheadModel(params, marked.speeds)
    root_speed = marked.speeds[0] * compute_efficiency

    def t0(n: float) -> float:
        return n * n / root_speed  # sequential back substitution at the root

    return PerformanceModel(
        workload=ge_workload,
        overhead=overhead.total,
        marked_speed=marked.total,
        compute_efficiency=compute_efficiency,
        sequential_time=t0,
        label=cluster.name,
    )


def _mm_model(
    cluster: ClusterSpec,
    params: MachineParameters,
    compute_efficiency: float,
) -> PerformanceModel:
    marked = marked_speed_of(cluster)
    overhead = MMOverheadModel(params, marked.speeds)
    return PerformanceModel(
        workload=mm_workload,
        overhead=overhead.total,
        marked_speed=marked.total,
        compute_efficiency=compute_efficiency,
        label=cluster.name,
    )


def _stencil_model(
    cluster: ClusterSpec,
    params: MachineParameters,
    compute_efficiency: float,
) -> PerformanceModel:
    from .runner import default_stencil_sweeps

    marked = marked_speed_of(cluster)
    overhead = StencilOverheadModel(params, marked.speeds)

    # Continuous solvers may probe sizes below the stencil's minimum grid;
    # clamp to the smallest meaningful problem.
    def workload(n: float) -> float:
        size = max(3, int(round(n)))
        return stencil_workload(size, default_stencil_sweeps(size))

    def overhead_clamped(n: float) -> float:
        return overhead.total(max(3.0, n))

    return PerformanceModel(
        workload=workload,
        overhead=overhead_clamped,
        marked_speed=marked.total,
        compute_efficiency=compute_efficiency,
        label=cluster.name,
    )


def _fft_model(
    cluster: ClusterSpec,
    params: MachineParameters,
    compute_efficiency: float,
) -> PerformanceModel:
    import math

    marked = marked_speed_of(cluster)
    overhead = FFTOverheadModel(params, marked.speeds)

    # Continuous analytic forms (real runs restrict N to powers of two).
    def workload(n: float) -> float:
        size = max(2.0, n)
        return 10.0 * size * size * math.log2(size)

    def overhead_clamped(n: float) -> float:
        return overhead.total(max(2.0, n))

    return PerformanceModel(
        workload=workload,
        overhead=overhead_clamped,
        marked_speed=marked.total,
        compute_efficiency=compute_efficiency,
        label=cluster.name,
    )


def base_machine_parameters(
    cluster: ClusterSpec | None = None,
    compute_efficiency: float = GE_COMPUTE_EFFICIENCY,
) -> MachineParameters:
    """Machine parameters measured on the base (two-node) configuration,
    as the paper does ("Based on the case of two nodes...")."""
    cluster = cluster if cluster is not None else ge_configuration(2)
    return fit_machine_parameters(
        cluster, marked_speed_of(cluster), compute_efficiency
    )


def required_rank_hybrid(
    app: str,
    cluster: ClusterSpec,
    target: float,
    model: PerformanceModel,
    compute_efficiency: float,
    rtol: float = 0.01,
) -> tuple[int, RunRecord]:
    """Model-guided simulated search for the smallest rank meeting the
    target speed-efficiency.

    The analytic prediction provides the bisection bracket (whose ends
    are run only if no midpoint decides them); a prediction that
    overshot or undershot falls back to an unguided search, which reuses
    every run the guided walk made.  Probes run one at a time through
    the resolved executor -- each probe's efficiency picks the next --
    so ``--jobs`` does not fan them out.  ``rtol`` bounds the relative
    precision of the returned rank (the paper reads ranks like "around
    310" off trend lines -- three significant digits).
    """
    from .executor import SweepPoint, resolve_executor

    exe = resolve_executor()
    marked = marked_speed_of(cluster)

    @cache
    def record(n: int) -> RunRecord:
        return exe.run_point(SweepPoint.make(
            app, cluster, n, marked=marked,
            compute_efficiency=compute_efficiency,
        ))

    def efficiency(n: int) -> float:
        return record(n).speed_efficiency

    n_pred = predict_required_size(model, target)
    # Lower bound 3 keeps the probe valid for every application (the
    # stencil's smallest meaningful grid is 3x3).
    floor = 3
    lower = max(floor, int(0.45 * n_pred))
    upper = max(lower + 2, int(2.5 * n_pred))
    try:
        n_star = required_problem_size(efficiency, target, lower, upper,
                                       rtol=rtol)
    except MetricError:  # E(upper) < target
        n_star = lower
    if n_star == lower:  # E(lower) >= target, or the bracket fell short
        n_star = required_problem_size(efficiency, target, floor, rtol=rtol)
    return n_star, record(n_star)


def table3_required_rank(
    node_counts: tuple[int, ...] = PAPER_NODE_COUNTS,
    target: float = GE_TARGET_EFFICIENCY,
    compute_efficiency: float = GE_COMPUTE_EFFICIENCY,
    params: MachineParameters | None = None,
    network_kind: str = "bus",
) -> list[RequiredRankRow]:
    """Required rank N to obtain the target speed-efficiency for GE across
    the paper's system configurations (Table 3).

    ``network_kind`` selects the interconnect model for every
    configuration (machine parameters are then fit on a matching
    two-node base case), so the paper's flat-Ethernet study and its
    rack-scale ablations share one code path.
    """
    params = params if params is not None else base_machine_parameters(
        ge_configuration(2, network_kind)
    )
    rows: list[RequiredRankRow] = []
    for nodes in node_counts:
        cluster = ge_configuration(nodes, network_kind)
        model = _ge_model(cluster, params, compute_efficiency)
        n_star, record = required_rank_hybrid(
            "ge", cluster, target, model, compute_efficiency
        )
        rows.append(
            RequiredRankRow(
                nodes=nodes,
                nranks=cluster.nranks,
                rank_n=n_star,
                workload=record.measurement.work,
                marked_speed=record.measurement.marked_speed,
                efficiency=record.speed_efficiency,
                measurement=record.measurement,
            )
        )
    return rows


def scalability_from_rows(
    rows: list[RequiredRankRow], metric: str
) -> ScalabilityCurve:
    """Consecutive ψ values between the iso-efficient rows (Tables 4/5)."""
    study = ScalabilityStudy(metric=metric)
    for row in rows:
        study.add(row.measurement)
    return study.curve(efficiency_rtol=0.25)


def table4_ge_scalability(
    rows: list[RequiredRankRow] | None = None,
) -> ScalabilityCurve:
    """Measured isospeed-efficiency scalability of GE on Sunwulf (Table 4)."""
    rows = rows if rows is not None else table3_required_rank()
    return scalability_from_rows(rows, metric="isospeed-efficiency/GE")


# ---------------------------------------------------------------------------
# Table 5 -- MM scalability (companion of Figure 2)
# ---------------------------------------------------------------------------

def table5_mm_required_rank(
    node_counts: tuple[int, ...] = PAPER_NODE_COUNTS,
    target: float = MM_TARGET_EFFICIENCY,
    compute_efficiency: float = MM_COMPUTE_EFFICIENCY,
    params: MachineParameters | None = None,
    network_kind: str = "bus",
) -> list[RequiredRankRow]:
    """Iso-efficient points of MM on the mixed SunBlade/V210 ensembles."""
    params = params if params is not None else base_machine_parameters(
        mm_configuration(2, network_kind), compute_efficiency
    )
    rows: list[RequiredRankRow] = []
    for nodes in node_counts:
        cluster = mm_configuration(nodes, network_kind)
        model = _mm_model(cluster, params, compute_efficiency)
        n_star, record = required_rank_hybrid(
            "mm", cluster, target, model, compute_efficiency
        )
        rows.append(
            RequiredRankRow(
                nodes=nodes,
                nranks=cluster.nranks,
                rank_n=n_star,
                workload=record.measurement.work,
                marked_speed=record.measurement.marked_speed,
                efficiency=record.speed_efficiency,
                measurement=record.measurement,
            )
        )
    return rows


def table5_mm_scalability(
    rows: list[RequiredRankRow] | None = None,
) -> ScalabilityCurve:
    """Measured isospeed-efficiency scalability of MM on Sunwulf (Table 5)."""
    rows = rows if rows is not None else table5_mm_required_rank()
    return scalability_from_rows(rows, metric="isospeed-efficiency/MM")


# ---------------------------------------------------------------------------
# Tables 6/7 -- predicted required rank and predicted scalability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PredictedRankRow:
    """One row of Table 6: model-predicted required rank."""

    nodes: int
    nranks: int
    rank_n: float
    workload: float
    marked_speed: float


def table6_predicted_rank(
    node_counts: tuple[int, ...] = PAPER_NODE_COUNTS,
    target: float = GE_TARGET_EFFICIENCY,
    compute_efficiency: float = GE_COMPUTE_EFFICIENCY,
    params: MachineParameters | None = None,
    network_kind: str = "bus",
) -> list[PredictedRankRow]:
    """Predicted required rank for constant speed-efficiency (Table 6),
    from machine parameters measured on the two-node base case."""
    params = params if params is not None else base_machine_parameters(
        ge_configuration(2, network_kind)
    )
    rows: list[PredictedRankRow] = []
    for nodes in node_counts:
        cluster = ge_configuration(nodes, network_kind)
        model = _ge_model(cluster, params, compute_efficiency)
        n_pred = predict_required_size(model, target)
        rows.append(
            PredictedRankRow(
                nodes=nodes,
                nranks=cluster.nranks,
                rank_n=n_pred,
                workload=ge_workload(int(round(n_pred))),
                marked_speed=model.marked_speed,
            )
        )
    return rows


def table7_predicted_scalability(
    predicted: list[PredictedRankRow] | None = None,
) -> list[ScalabilityPoint]:
    """Predicted ψ between consecutive configurations (Table 7): the
    isospeed-efficiency scalability computed from the predicted ranks."""
    predicted = predicted if predicted is not None else table6_predicted_rank()
    points: list[ScalabilityPoint] = []
    for before, after in zip(predicted, predicted[1:]):
        psi = (after.marked_speed * before.workload) / (
            before.marked_speed * after.workload
        )
        points.append(
            ScalabilityPoint(
                c_from=before.marked_speed,
                c_to=after.marked_speed,
                work_from=before.workload,
                work_to=after.workload,
                psi=psi,
                label_from=f"{before.nodes} nodes",
                label_to=f"{after.nodes} nodes",
            )
        )
    return points


# ---------------------------------------------------------------------------
# Section 4.4.3 -- GE vs MM comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonRow:
    """ψ of both combinations over one system-size transition."""

    transition: str
    ge_psi: float
    mm_psi: float

    @property
    def mm_more_scalable(self) -> bool:
        return self.mm_psi > self.ge_psi


def comparison_ge_vs_mm(
    ge_curve: ScalabilityCurve, mm_curve: ScalabilityCurve
) -> list[ComparisonRow]:
    """Side-by-side ψ values: the paper's observation that the MM-Sunwulf
    combination is more scalable than GE-Sunwulf (section 4.4.3)."""
    if len(ge_curve.points) != len(mm_curve.points):
        raise MetricError("curves must cover the same transitions")
    rows: list[ComparisonRow] = []
    for ge_point, mm_point in zip(ge_curve.points, mm_curve.points):
        label = f"{ge_point.label_from} -> {ge_point.label_to}"
        rows.append(
            ComparisonRow(
                transition=label, ge_psi=ge_point.psi, mm_psi=mm_point.psi
            )
        )
    return rows
