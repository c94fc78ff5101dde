"""Analytical results: Theorem 1 and Corollaries 1-2 (section 3.4).

With a balanced workload, sequential fraction ``alpha``, sequential-portion
time ``t0`` and total communication/synchronization overhead ``To``, the
parallel execution time decomposes as::

    T = (1 - alpha) W / C  +  t0  +  To

Substituting into the isospeed-efficiency condition
``W/(T C) = W'/(T' C')`` cancels the parallel-compute terms and yields the
closed forms implemented here::

    W'  = W * C' * (t0' + To') / (C * (t0 + To))          (Theorem 1, work)
    psi = (C' W) / (C W') = (t0 + To) / (t0' + To')       (Theorem 1, psi)

Corollary 1: ``alpha = 0`` and constant overhead => ``psi = 1``.
Corollary 2: ``alpha = 0`` => ``psi = To / To'``.

Because ``t0'`` and ``To'`` generally depend on the scaled problem size,
Theorem 1 is implicit in ``W'``; :func:`solve_scaled_work` resolves the
fixed point numerically for model callables.
"""

from __future__ import annotations

from typing import Callable

from .condition import _brentq
from .types import MetricError, _require_positive


def execution_time(
    work: float, marked_speed: float, alpha: float, t0: float, overhead: float
) -> float:
    """``T = (1 - alpha) W / C + t0 + To`` -- the Theorem 1 decomposition."""
    _require_positive("work", work)
    _require_positive("marked_speed", marked_speed)
    if not 0 <= alpha < 1:
        raise MetricError(f"alpha must be in [0, 1), got {alpha}")
    if t0 < 0 or overhead < 0:
        raise MetricError("t0 and overhead must be non-negative")
    return (1.0 - alpha) * work / marked_speed + t0 + overhead


def sequential_time(alpha: float, work: float, node_speed: float) -> float:
    """``t0 = alpha W / C_i``: time of the non-parallelizable portion run on
    a single node of speed ``C_i``."""
    if not 0 <= alpha < 1:
        raise MetricError(f"alpha must be in [0, 1), got {alpha}")
    _require_positive("work", work)
    _require_positive("node_speed", node_speed)
    return alpha * work / node_speed


def theorem1_scalability(
    t0: float, overhead: float, t0_scaled: float, overhead_scaled: float
) -> float:
    """``psi = (t0 + To) / (t0' + To')`` (Theorem 1)."""
    if t0 < 0 or overhead < 0 or t0_scaled < 0 or overhead_scaled < 0:
        raise MetricError("times must be non-negative")
    denom = t0_scaled + overhead_scaled
    numer = t0 + overhead
    if denom <= 0:
        if numer <= 0:
            # Corollary 1 limit: no sequential work, no overhead, anywhere.
            return 1.0
        raise MetricError(
            "scaled system has zero sequential+overhead time but the base "
            "system does not; psi is unbounded"
        )
    if numer <= 0:
        raise MetricError(
            "base system has zero sequential+overhead time but the scaled "
            "system does not; no finite problem size can hold E_S constant"
        )
    return numer / denom


def theorem1_scaled_work(
    work: float,
    c_from: float,
    c_to: float,
    t0: float,
    overhead: float,
    t0_scaled: float,
    overhead_scaled: float,
) -> float:
    """``W' = W C' (t0' + To') / (C (t0 + To))`` with *known* scaled terms."""
    _require_positive("work", work)
    _require_positive("c_from", c_from)
    _require_positive("c_to", c_to)
    psi = theorem1_scalability(t0, overhead, t0_scaled, overhead_scaled)
    return work * c_to / (c_from * psi)


def corollary2_scalability(overhead: float, overhead_scaled: float) -> float:
    """``psi = To / To'`` for perfectly parallel, balanced algorithms."""
    return theorem1_scalability(0.0, overhead, 0.0, overhead_scaled)


def solve_scaled_work(
    work: float,
    c_from: float,
    c_to: float,
    t0: float,
    overhead: float,
    t0_of_work: Callable[[float], float],
    overhead_of_work: Callable[[float], float],
    bracket: tuple[float, float] | None = None,
) -> float:
    """Resolve Theorem 1's implicit ``W'`` when ``t0'``/``To'`` depend on it.

    Solves ``W' = W C' (t0'(W') + To'(W')) / (C (t0 + To))`` by root
    finding on ``g(W') = W' - rhs(W')``.  ``t0_of_work``/``overhead_of_work``
    must be non-decreasing in ``W'`` (true of all the paper's models), which
    guarantees a unique crossing when one exists in the bracket.
    """
    _require_positive("work", work)
    _require_positive("c_from", c_from)
    _require_positive("c_to", c_to)
    base = t0 + overhead
    if base <= 0:
        raise MetricError(
            "Theorem 1 needs positive sequential+overhead time on the base "
            "system (use corollary 1 for the zero-overhead ideal case)"
        )
    scale = c_to / (c_from * base)

    def residual(w_scaled: float) -> float:
        rhs = work * scale * (t0_of_work(w_scaled) + overhead_of_work(w_scaled))
        return w_scaled - rhs

    if bracket is None:
        lo = work  # W' >= W whenever C' >= C and overheads do not shrink
        hi = work * max(2.0, 4.0 * c_to / c_from)
        # Expand until the residual changes sign (rhs grows slower than W'
        # for the paper's sub-linear overhead models).
        for _ in range(200):
            if residual(hi) > 0:
                break
            hi *= 2.0
        else:
            raise MetricError("could not bracket the scaled work W'")
        if residual(lo) > 0:
            # Even W' = W overshoots: the scaled system holds E_S with less
            # work per unit speed (psi > 1, e.g. overhead shrank). Search
            # downward.
            for _ in range(200):
                lo *= 0.5
                if residual(lo) <= 0:
                    break
            else:
                raise MetricError("could not bracket the scaled work W'")
        bracket = (lo, hi)
    return _brentq(residual, bracket[0], bracket[1], xtol=1e-9, rtol=1e-12)
