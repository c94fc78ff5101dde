"""Solving the isospeed-efficiency condition for the required problem size.

The paper's first method (section 3.5) finds, for each configuration, the
problem size whose speed-efficiency equals a chosen constant (0.3 for GE,
0.2 for MM).  Speed-efficiency rises with the problem size for the
paper's applications (communication grows slower than computation), but
not monotonically at unit granularity: simulated GE's E(N) is a sawtooth
(at 4 nodes E(834) = 0.30002, E(835) = 0.29932, E(836) = 0.29986), so
"the" required size depends on how it is searched for.  ROADMAP.md's
sawtooth item ("The required rank is read off a sawtooth") tracks making
it a property of E(N) alone.

Two solvers are provided:

* :func:`required_problem_size` -- integer bisection against any evaluator
  ``E(N)`` (e.g. a full simulated run), returning an integer ``N`` with
  ``E(N) >= target`` at the top of its final bracket (the smallest such
  ``N`` only when ``E`` is non-decreasing).
* :func:`required_size_continuous` -- Brent root finding against a smooth
  model ``E(N)``, for analytic prediction (section 4.5).

``_brentq`` (also Theorem 1's fixed point in :mod:`repro.core.theory`) is a port
of scipy's C ``brentq``: the same roots bit for bit, without importing scipy.
"""

from __future__ import annotations

import math
from typing import Callable

from .types import MetricError, _require_positive


def _brentq(
    f: Callable[[float], float], a: float, b: float, xtol: float, rtol: float
) -> float:
    """Root of ``f`` in ``[a, b]``: scipy's ``brentq`` (same branches, stop rule and
    100-iteration cap), raising :class:`MetricError` wherever scipy raises."""

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise MetricError(f"residual is NaN at x={x!r}")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise MetricError(f"f(a) and f(b) must have different signs on [{a}, {b}]")
    for _ in range(100):
        if (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise MetricError(f"Brent's method did not converge on [{a}, {b}]")


def required_problem_size(
    efficiency_of: Callable[[int], float],
    target: float,
    lower: int = 2,
    upper: int | None = None,
    max_upper: int = 1 << 22,
    rtol: float = 0.0,
) -> int:
    """An integer ``N >= lower`` with ``efficiency_of(N) >= target``.

    It is the top of the bisection's final bracket ``(lo, hi]``, where
    ``E(lo) < target <= E(hi)``: the *smallest* passing ``N`` only if
    ``efficiency_of`` is non-decreasing.  On a sawtooth (simulated GE, see
    the module docstring) a smaller passing ``N`` may lie outside the
    final bracket, so the answer depends on the bracket and probe order.

    Without ``upper`` the bracket doubles from ``lower`` until the target
    is met or ``max_upper`` is exceeded; each failing doubling size
    becomes the bracket's lower end, so the bisection never re-probes
    below it.  An explicit ``[lower, upper]`` is bisected without
    evaluating its ends: a passing midpoint stands in for ``E(upper) >=
    target`` and a failing one for ``E(lower) < target``.  An end the
    walk never moved off is evaluated last (``lower`` is returned if it
    passes; an ``upper`` below target raises :class:`MetricError`), so a
    bracket that misses the answer costs the walk towards that end, plus
    the end.

    ``rtol > 0`` stops the bisection once the bracket is relatively tight
    (``hi - lo <= rtol * hi``), returning the satisfying endpoint -- used
    when each evaluation is an expensive simulated run and the paper-style
    read-off only needs a few significant digits.
    """
    _require_positive("target", target)
    if lower < 1:
        raise MetricError(f"lower bound must be >= 1, got {lower}")
    if rtol < 0:
        raise MetricError(f"rtol must be non-negative, got {rtol}")

    lo, hi = lower, upper  # E(lo) < target <= E(hi), checked or implied
    if upper is None:
        if efficiency_of(lower) >= target:
            return lower
        hi = max(2 * lower, 16)
        while efficiency_of(hi) < target:
            if hi >= max_upper:
                raise MetricError(
                    f"efficiency never reaches {target} up to N={max_upper}; "
                    "the combination cannot attain the requested "
                    "speed-efficiency (unscalable at this target)"
                )
            lo, hi = hi, min(2 * hi, max_upper)
    while hi - lo > 1 and hi - lo > rtol * hi:
        mid = (lo + hi) // 2
        if efficiency_of(mid) >= target:
            hi = mid
        else:
            lo = mid
    if upper is None:
        return hi
    if lo == lower and efficiency_of(lower) >= target:
        return lower
    if hi == upper and efficiency_of(upper) < target:
        raise MetricError(
            f"efficiency at upper bound N={upper} is below target {target}"
        )
    return hi


def required_size_continuous(
    efficiency_of: Callable[[float], float],
    target: float,
    lower: float = 2.0,
    upper: float | None = None,
    max_upper: float = 1e9,
) -> float:
    """Real-valued problem size with ``efficiency_of(N) == target``.

    Used for model-based prediction where ``E(N)`` is smooth and monotone.
    """
    _require_positive("target", target)
    _require_positive("lower", lower)

    def residual(n: float) -> float:
        return efficiency_of(n) - target

    if residual(lower) >= 0:
        return lower
    if upper is None:
        upper = max(2 * lower, 16.0)
        while residual(upper) < 0:
            if upper >= max_upper:
                raise MetricError(
                    f"model efficiency never reaches {target} up to N={max_upper}"
                )
            upper = min(2 * upper, max_upper)
    elif residual(upper) < 0:
        raise MetricError(
            f"model efficiency at upper bound N={upper} is below target {target}"
        )
    return _brentq(residual, lower, upper, xtol=1e-6, rtol=1e-12)
