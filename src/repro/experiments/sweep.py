"""Parameter sweeps: efficiency curves and required-problem-size searches.

These implement the paper's first scalability-calculation method (section
3.5): measure speed-efficiency across problem sizes per configuration,
then find the size attaining the chosen constant efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Sequence

from ..core.condition import required_problem_size
from ..core.trendline import TrendFit, fit_trend_from_measurements
from ..core.types import Measurement
from ..machine.cluster import ClusterSpec
from .executor import SweepExecutor, SweepPoint, resolve_executor
from .runner import RunRecord, marked_speed_of


@dataclass
class EfficiencyCurve:
    """Speed-efficiency samples of one combination across problem sizes."""

    app: str
    cluster: ClusterSpec
    records: list[RunRecord] = field(default_factory=list)

    @property
    def measurements(self) -> list[Measurement]:
        return [r.measurement for r in self.records]

    @property
    def sizes(self) -> list[float]:
        return [m.problem_size for m in self.measurements]

    @property
    def efficiencies(self) -> list[float]:
        return [m.speed_efficiency for m in self.measurements]

    def trend(self, degree: int = 2) -> TrendFit:
        """The paper's polynomial trend line through the samples."""
        return fit_trend_from_measurements(self.measurements, degree=degree)


def efficiency_curve(
    app: str,
    cluster: ClusterSpec,
    sizes: Sequence[int],
    executor: SweepExecutor | None = None,
    **run_kwargs,
) -> EfficiencyCurve:
    """Sample speed-efficiency at each problem size (Figures 1 and 2).

    The sizes are independent points: with a parallel/caching
    :class:`~repro.experiments.executor.SweepExecutor` (explicit or
    ambient via :func:`~repro.experiments.executor.sweep_execution`) they
    fan out over worker processes and reuse cached runs; the default
    executor reproduces the serial in-process loop exactly.
    """
    exe = resolve_executor(executor)
    with exe.setup_span("marked_speed"):
        marked = marked_speed_of(cluster)
    points = [
        SweepPoint.make(app, cluster, int(n), marked=marked, **run_kwargs)
        for n in sizes
    ]
    records = exe.run_points(points)
    return EfficiencyCurve(app=app, cluster=cluster, records=records)


def required_size_by_simulation(
    app: str,
    cluster: ClusterSpec,
    target_efficiency: float,
    lower: int = 2,
    max_upper: int = 1 << 16,
    executor: SweepExecutor | None = None,
    **run_kwargs,
) -> tuple[int, RunRecord]:
    """Smallest problem size whose *simulated* efficiency meets the target.

    Runs the simulator inside a bisection, one probe at a time: each
    probe's efficiency picks the next, so even a parallel executor runs
    each probe in-process (the run cache still applies).  Results are
    memoized per size.  Returns the size and the run record at that size
    (the iso-efficient observation fed to the scalability function).
    """
    exe = resolve_executor(executor)
    marked = marked_speed_of(cluster)

    @cache
    def record(n: int) -> RunRecord:
        return exe.run_point(SweepPoint.make(app, cluster, n, marked=marked,
                                             **run_kwargs))

    n_star = required_problem_size(
        lambda n: record(n).speed_efficiency, target_efficiency, lower,
        max_upper=max_upper,
    )
    return n_star, record(n_star)


def required_size_by_trend(
    curve: EfficiencyCurve, target_efficiency: float, degree: int = 2
) -> float:
    """The paper's read-off-the-trend-line method for the required size."""
    return curve.trend(degree=degree).required_size(target_efficiency)


def geometric_sizes(start: int, stop: int, count: int) -> list[int]:
    """Geometrically spaced integer problem sizes for curve sampling."""
    if count < 2 or start < 1 or stop <= start:
        raise ValueError("need count >= 2 and 1 <= start < stop")
    ratio = (stop / start) ** (1.0 / (count - 1))
    sizes: list[int] = []
    value = float(start)
    for _ in range(count):
        # Accumulated float error in `value *= ratio` can round the last
        # generated size past `stop` (e.g. start=2, stop=10**15, count=6
        # yields 10**15 + 2); clamp so the unconditional endpoint append
        # below can never produce a non-monotone tail.
        n = min(int(round(value)), stop)
        if not sizes or n > sizes[-1]:
            sizes.append(n)
        value *= ratio
    if sizes[-1] != stop:
        sizes.append(stop)
    assert all(a < b for a, b in zip(sizes, sizes[1:])), sizes
    return sizes
