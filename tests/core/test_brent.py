"""The in-repo Brent solver against ``scipy.optimize.brentq``, bit for bit.

The paper's two root finds (the §4.5 required size and Theorem 1's scaled
work) use :func:`repro.core.condition._brentq` so that importing ``repro``
does not load scipy.  These tests pin that it returns exactly the roots
scipy would, compared with ``float.hex()``.
"""

import math
import random

import pytest

from repro.core import condition, theory
from repro.core.condition import _brentq
from repro.core.theory import solve_scaled_work
from repro.core.types import MetricError
from repro.experiments.tables import table6_predicted_rank

scipy_optimize = pytest.importorskip("scipy.optimize")

#: The ``(xtol, rtol)`` pairs of the two call sites: required size, W'.
TOLERANCES = [(1e-6, 1e-12), (1e-9, 1e-12)]


def scipy_brentq(f, a, b, xtol, rtol):
    return float(scipy_optimize.brentq(f, a, b, xtol=xtol, rtol=rtol))


def _family(seed: int):
    """One seeded bracketed function ``(f, a, b)`` with a sign change."""
    rng = random.Random(seed)
    root = rng.uniform(-50.0, 50.0)
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    kind = seed % 4
    if kind == 0:  # polynomial, odd degree so it crosses once
        degree = rng.choice((1, 3, 5))
        shift = rng.uniform(0.0, 2.0)

        def f(x):
            d = (x - root) / scale
            return d ** degree + shift * d
    elif kind == 1:  # exponential minus a constant
        rate = rng.uniform(0.01, 2.0)

        def f(x):
            return math.exp(rate * (x - root) / scale) - 1.0
    elif kind == 2:  # flat tails
        offset = rng.uniform(-0.9, 0.9)
        steep = rng.uniform(0.1, 20.0)

        def f(x):
            return math.tanh(steep * (x - root) / scale + math.atanh(offset)) - offset
    else:  # logistic crossing a level
        level = rng.uniform(0.05, 0.95)
        steep = rng.uniform(0.1, 20.0)
        centre = root + math.log(level / (1.0 - level)) * scale / steep

        def f(x):
            z = -steep * (x - centre) / scale
            return (1.0 / (1.0 + math.exp(z)) if z < 700 else 0.0) - level
    a = root - rng.uniform(1e-3, 30.0) * scale
    b = root + rng.uniform(1e-3, 30.0) * scale
    return f, a, b


@pytest.mark.parametrize("xtol,rtol", TOLERANCES)
def test_matches_scipy_on_seeded_family(xtol, rtol):
    compared = 0
    for seed in range(400):
        f, a, b = _family(seed)
        if (f(a) < 0) == (f(b) < 0):
            continue
        ours = _brentq(f, a, b, xtol, rtol)
        assert ours.hex() == scipy_brentq(f, a, b, xtol, rtol).hex(), seed
        compared += 1
    assert compared >= 380


def test_slow_bisection_matches_scipy():
    """A jump needs ~70 near-bisection steps, close to the 100-step cap."""
    def f(x):
        return -1.0 if x < 1.0 else 1.0

    ours = _brentq(f, -1e12, 1e12, 1e-9, 1e-12)
    assert ours.hex() == scipy_brentq(f, -1e12, 1e12, 1e-9, 1e-12).hex()


def test_root_at_bracket_end_returned_exactly():
    assert _brentq(lambda x: x - 2.0, 2.0, 5.0, 1e-6, 1e-12) == 2.0
    assert _brentq(lambda x: x - 5.0, 2.0, 5.0, 1e-6, 1e-12) == 5.0


@pytest.fixture
def use_scipy(monkeypatch):
    """Route both call sites through ``scipy.optimize.brentq``."""

    def patch():
        monkeypatch.setattr(condition, "_brentq", scipy_brentq)
        monkeypatch.setattr(theory, "_brentq", scipy_brentq)

    return patch


def test_predicted_ge_ranks_match_scipy(use_scipy):
    nodes = (2, 4, 8, 16, 32)
    ours = [row.rank_n.hex() for row in table6_predicted_rank(nodes)]
    use_scipy()
    assert [row.rank_n.hex() for row in table6_predicted_rank(nodes)] == ours


SCALED_WORK_CASES = [
    (1e9, 1e8, 2e8, 0.0, 2.0, lambda _: 0.0,
     lambda w: 4.0 * (w / 1e9) ** (2.0 / 3.0)),
    (1e9, 1e8, 2e8, 0.0, 2.0, lambda _: 0.0, lambda _: 3.0),
    (1e9, 1e8, 2e8, 0.0, 4.0, lambda _: 0.0, lambda _: 1.0),
]


@pytest.mark.parametrize("case", range(len(SCALED_WORK_CASES)))
def test_scaled_work_matches_scipy(use_scipy, case):
    args = SCALED_WORK_CASES[case]
    ours = solve_scaled_work(*args)
    use_scipy()
    assert solve_scaled_work(*args).hex() == ours.hex()


def test_no_sign_change_raises():
    with pytest.raises(MetricError, match="different signs"):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-6, 1e-12)


@pytest.mark.parametrize("nan_from,nan_to", [(0.9, 2.0), (0.2, 0.9)])
def test_nan_residual_raises(nan_from, nan_to):
    """NaN at a bracket end, and NaN at the first interior step (x = 0.5)."""
    def f(x):
        return math.nan if nan_from < x < nan_to else x ** 3 - 0.5

    with pytest.raises(MetricError, match="NaN"):
        _brentq(f, 0.0, 1.0, 1e-6, 1e-12)


def test_non_convergence_raises():
    # A jump at the midpoint of a huge bracket: each step halves at best,
    # and 100 halvings of 1e300 never reach the absolute tolerance.
    with pytest.raises(MetricError, match="did not converge"):
        _brentq(lambda x: -1.0 if x < 1.0 else 1.0, -1e300, 1e300,
                1e-300, 1e-12)
