"""Scalability analysis under faults: C_eff, fault-adjusted E_S, degraded ψ.

The paper's metric treats every marked speed ``C_i`` as a constant.  Under
faults a node is only *available* for a fraction ``a_i`` of the run, so the
natural generalization is the availability-weighted effective marked speed

    C_eff = Σ C_i · a_i

and the fault-adjusted speed-efficiency ``E_S = W / (T · C_eff)``: achieved
speed against the capacity that actually existed.

Degraded ψ follows Theorem 1.  With ``T = (1-α)W/C + t_0 + T_o`` the
achieved-vs-achieved scalability of the *same* (application, system, W)
run with and without faults reduces to

    ψ_degraded = (t_0 + T_o) / (t_0' + T_o')

where the primed quantities come from the faulted run -- faults leave the
ideal compute term ``(1-α)W/C`` untouched (the machine's rated capacity
does not change) and inflate the measured overhead ``T_o'``.  ψ = 1 means
the fault scenario cost nothing; ψ decreases monotonically as fault
intensity grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.types import MetricError
from ..obs.analysis import overhead_decomposition


def availability_weighted_speed(
    speeds: Sequence[float], availabilities: Sequence[float]
) -> float:
    """Effective marked speed ``C_eff = Σ C_i · a_i``."""
    if len(speeds) != len(availabilities):
        raise MetricError(
            f"{len(speeds)} speeds but {len(availabilities)} availabilities"
        )
    for a in availabilities:
        if not 0.0 <= a <= 1.0:
            raise MetricError(f"availability must be in [0, 1], got {a}")
    return sum(c * a for c, a in zip(speeds, availabilities))


def fault_speed_efficiency(work: float, time: float, c_eff: float) -> float:
    """Fault-adjusted speed-efficiency ``E_S = W / (T · C_eff)``."""
    if work <= 0:
        raise MetricError(f"work must be positive, got {work}")
    if time <= 0:
        raise MetricError(f"time must be positive, got {time}")
    if c_eff <= 0:
        raise MetricError(f"effective marked speed must be positive, got {c_eff}")
    return work / (time * c_eff)


def degraded_psi(
    work: float,
    marked_speed: float,
    baseline_time: float,
    faulted_time: float,
    compute_efficiency: float = 1.0,
    alpha: float = 0.0,
    t0: float | None = None,
) -> float:
    """Theorem-1 degraded scalability ``ψ = (t_0 + T_o) / (t_0' + T_o')``.

    Both runs share ``(W, C)``; the decomposition extracts each run's
    parallel-processing overhead against the common ideal compute time.
    Returns 1.0 when neither run shows any overhead.
    """
    base = overhead_decomposition(
        work, marked_speed, baseline_time,
        compute_efficiency=compute_efficiency, alpha=alpha, t0=t0,
    )
    faulted = overhead_decomposition(
        work, marked_speed, faulted_time,
        compute_efficiency=compute_efficiency, alpha=alpha, t0=t0,
    )
    numerator = base.t0 + base.overhead
    denominator = faulted.t0 + faulted.overhead
    if denominator == 0.0:
        return 1.0
    return numerator / denominator


@dataclass(frozen=True)
class FaultSweepRow:
    """One point of a fault-intensity sweep."""

    severity: float
    baseline_makespan: float
    makespan: float
    c_eff: float
    speed_efficiency: float
    fault_speed_efficiency: float
    psi: float

    @property
    def slowdown(self) -> float:
        """Makespan inflation T'/T relative to the fault-free run."""
        if self.baseline_makespan <= 0:
            return 1.0
        return self.makespan / self.baseline_makespan
