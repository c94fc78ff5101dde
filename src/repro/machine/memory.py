"""Memory-footprint models and feasibility checking.

The paper's section-2 critique of speedup-based metrics is a memory
argument: "to measure the execution time of large applications on a
single node is problematic, if not impossible".  This module makes the
argument executable: per-application footprint models (bytes each rank
must hold, given its share of the problem) and a cluster-level
feasibility check used by experiments to flag runs whose distributed
state would not fit -- or whose *sequential reference* would not.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.errors import InvalidOperationError
from .cluster import ClusterSpec

_DOUBLE = 8.0
_MB = float(2**20)


def ge_rank_bytes(n: int, rows: int) -> float:
    """GE per-rank state: owned augmented rows + one pivot-row buffer."""
    _validate(n, rows, limit=n)
    return rows * (n + 1) * _DOUBLE + (n + 1) * _DOUBLE


def mm_rank_bytes(n: int, rows: int) -> float:
    """1-D MM per-rank state: A band, the full replicated B, the C band."""
    _validate(n, rows, limit=n)
    return (2 * rows * n + n * n) * _DOUBLE


def mm2d_rank_bytes(n: int, rows: int, cols: int) -> float:
    """2-D MM per-rank state: A row band, B column band, C tile."""
    _validate(n, rows, limit=n)
    if cols < 0 or cols > n:
        raise InvalidOperationError(f"cols must be in [0, {n}], got {cols}")
    return (rows * n + n * cols + rows * cols) * _DOUBLE


def stencil_rank_bytes(n: int, rows: int) -> float:
    """Stencil per-rank state: the band with two halo rows, double-buffered."""
    _validate(n, rows, limit=n)
    if rows == 0:
        return 0.0
    return 2 * (rows + 2) * n * _DOUBLE


#: Footprint models per application: (bytes one rank holds given its row
#: count, bytes of a *sequential* execution -- the reference run that
#: speedup-based metrics require).
_MODELS = {
    "ge": (ge_rank_bytes, lambda n: n * (n + 1) * _DOUBLE),
    "mm": (mm_rank_bytes, lambda n: 3 * n * n * _DOUBLE),  # A, B, C
    "stencil": (stencil_rank_bytes, lambda n: 2 * n * n * _DOUBLE),  # 2 grids
}


def _model(app: str):
    """The (per-rank, sequential) footprint models of ``app``."""
    if app not in _MODELS:
        raise InvalidOperationError(
            f"no memory model for application {app!r}; models exist for "
            f"{', '.join(_MODELS)}"
        )
    return _MODELS[app]


def sequential_bytes(app: str, n: int) -> float:
    """Footprint of a *sequential* execution (the reference run that
    speedup-based metrics require)."""
    model = _model(app)[1]
    if n < 1:
        raise InvalidOperationError(f"n must be >= 1, got {n}")
    return model(n)


@dataclass(frozen=True)
class NodeUsage:
    """Projected memory use of one physical node for one run."""

    node_id: int
    required_mb: float
    capacity_mb: float

    @property
    def fits(self) -> bool:
        return self.required_mb <= self.capacity_mb

    @property
    def utilization(self) -> float:
        return self.required_mb / self.capacity_mb


@dataclass(frozen=True)
class FeasibilityReport:
    """Per-node memory verdicts for one (app, cluster, N) combination."""

    app: str
    n: int
    nodes: tuple[NodeUsage, ...]

    @property
    def fits(self) -> bool:
        return all(node.fits for node in self.nodes)

    def tightest(self) -> NodeUsage:
        """The node closest to (or furthest past) its capacity."""
        return max(self.nodes, key=lambda u: u.utilization)


def distributed_feasibility(
    cluster: ClusterSpec,
    app: str,
    n: int,
    rows_per_rank: list[int] | None = None,
) -> FeasibilityReport:
    """Check whether a distributed run fits each node's memory.

    ``rows_per_rank`` defaults to a distribution proportional to hardware
    peak (a close stand-in for marked-speed shares when no measurement is
    at hand).  Requires the cluster to carry node memory sizes.
    """
    model = _model(app)[0]
    if n < 1:
        raise InvalidOperationError(f"n must be >= 1, got {n}")
    if not cluster.node_memory_mb:
        raise InvalidOperationError(
            f"cluster {cluster.name!r} does not record node memory; build "
            "it with ClusterSpec.from_nodes to enable feasibility checks"
        )
    if rows_per_rank is None:
        from ..apps.distribution import proportional_counts

        rows_per_rank = proportional_counts(
            n, [slot.ptype.peak_mflops for slot in cluster.slots]
        )
    if len(rows_per_rank) != cluster.nranks:
        raise InvalidOperationError(
            f"rows_per_rank has {len(rows_per_rank)} entries for "
            f"{cluster.nranks} ranks"
        )

    per_node: dict[int, float] = {}
    for slot, rows in zip(cluster.slots, rows_per_rank):
        per_node.setdefault(slot.node_id, 0.0)
        per_node[slot.node_id] += model(n, rows)

    usages = tuple(
        NodeUsage(
            node_id=node_id,
            required_mb=bytes_used / _MB,
            capacity_mb=cluster.memory_of_node(node_id) or float("inf"),
        )
        for node_id, bytes_used in sorted(per_node.items())
    )
    return FeasibilityReport(app=app, n=n, nodes=usages)


def sequential_reference_feasible(
    cluster: ClusterSpec, app: str, n: int
) -> bool:
    """Can ANY single node of the cluster hold the sequential problem?

    This is the question speedup-based metrics implicitly answer with
    'yes'; returning False here reproduces the paper's impossibility
    argument for concrete (app, cluster, N) combinations.
    """
    if not cluster.node_memory_mb:
        raise InvalidOperationError(
            f"cluster {cluster.name!r} does not record node memory"
        )
    need_mb = sequential_bytes(app, n) / _MB
    return any(capacity >= need_mb for capacity in cluster.node_memory_mb)


def _validate(n: int, rows: int, limit: int) -> None:
    if n < 1:
        raise InvalidOperationError(f"n must be >= 1, got {n}")
    if rows < 0 or rows > limit:
        raise InvalidOperationError(f"rows must be in [0, {limit}], got {rows}")
