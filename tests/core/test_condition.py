"""Unit tests for the isospeed-efficiency condition solvers."""

import math
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.condition import required_problem_size, required_size_continuous
from repro.core.types import MetricError


def saturating(n):
    """A GE-like efficiency curve: rises toward 0.5."""
    return 0.5 * n / (n + 100.0)


class TestIntegerSolver:
    def test_finds_smallest_satisfying_n(self):
        n = required_problem_size(saturating, 0.25)
        assert saturating(n) >= 0.25
        assert saturating(n - 1) < 0.25
        assert n == 100  # 0.5 n/(n+100) >= 0.25 <=> n >= 100 exactly

    def test_lower_already_satisfies(self):
        assert required_problem_size(saturating, 0.25, lower=500) == 500

    def test_explicit_upper(self):
        n = required_problem_size(saturating, 0.25, upper=1 << 12)
        assert n == 100

    def test_upper_too_small_rejected(self):
        with pytest.raises(MetricError):
            required_problem_size(saturating, 0.25, upper=50)

    def test_unreachable_target_raises(self):
        with pytest.raises(MetricError):
            required_problem_size(saturating, 0.9, max_upper=1 << 16)

    def test_rtol_terminates_early_but_satisfies(self):
        calls = []

        def counted(n):
            calls.append(n)
            return saturating(n)

        n = required_problem_size(counted, 0.25, rtol=0.05)
        assert saturating(n) >= 0.25
        assert abs(n - 100) <= 0.05 * n
        exact_calls = []

        def counted2(n):
            exact_calls.append(n)
            return saturating(n)

        required_problem_size(counted2, 0.25, rtol=0.0)
        assert len(calls) < len(exact_calls)

    def test_validation(self):
        with pytest.raises(MetricError):
            required_problem_size(saturating, 0.0)
        with pytest.raises(MetricError):
            required_problem_size(saturating, 0.25, lower=0)
        with pytest.raises(MetricError):
            required_problem_size(saturating, 0.25, rtol=-1.0)


def eager_required_problem_size(efficiency_of, target, lower=2, upper=None,
                                max_upper=1 << 22, rtol=0.0):
    """The reference walk: both ends of an explicit bracket are evaluated
    before it is bisected."""
    if efficiency_of(lower) >= target:
        return lower
    lo = lower
    if upper is None:
        upper = max(2 * lower, 16)
        while efficiency_of(upper) < target:
            if upper >= max_upper:
                raise MetricError("unreachable")
            lo, upper = upper, min(2 * upper, max_upper)
    elif efficiency_of(upper) < target:
        raise MetricError("upper below target")
    hi = upper
    while hi - lo > 1 and hi - lo > rtol * hi:
        mid = (lo + hi) // 2
        if efficiency_of(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def outcome(solve, efficiency_of, target, **kwargs):
    try:
        return solve(efficiency_of, target, **kwargs)
    except MetricError:
        return MetricError


@st.composite
def monotone_steps(draw):
    """A non-decreasing step function ``E(N)`` and a target in its range."""
    edges = sorted(draw(st.lists(st.integers(1, 6000), max_size=5)))
    levels = sorted(draw(st.lists(
        st.floats(0.0, 1.0), min_size=len(edges) + 1,
        max_size=len(edges) + 1,
    )))
    target = draw(st.floats(0.001, 1.0))
    return (lambda n: levels[bisect_right(edges, n)]), target


RTOLS = st.sampled_from([0.0, 0.01, 0.05, 0.2])


class TestLazyEndpoints:
    @given(case=monotone_steps(), lower=st.integers(1, 3000),
           width=st.integers(0, 5000), explicit=st.booleans(), rtol=RTOLS)
    @settings(max_examples=300, deadline=None)
    def test_same_answer_as_eager_walk(self, case, lower, width, explicit,
                                       rtol):
        efficiency_of, target = case
        kwargs = dict(lower=lower, upper=lower + width if explicit else None,
                      max_upper=1 << 14, rtol=rtol)
        assert outcome(required_problem_size, efficiency_of, target,
                       **kwargs) == outcome(eager_required_problem_size,
                                            efficiency_of, target, **kwargs)

    @given(lower=st.integers(1, 3000), extra=st.integers(0, 5000),
           rtol=RTOLS, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_threshold_inside_bracket_skips_both_ends(self, lower, extra,
                                                      rtol, data):
        # Thresholds with room for a failing and a passing midpoint
        # before the walk's stop rule ends it.
        first = math.floor(max(lower + 1, lower / (1 - rtol))) + 1
        upper = max(first + 1, math.ceil(first / (1 - rtol))) + extra
        last = math.floor(upper - max(1, rtol * upper))
        threshold = data.draw(st.integers(first, last))
        evaluated = []

        def efficiency_of(n):
            evaluated.append(n)
            return 1.0 if n >= threshold else 0.0

        n = required_problem_size(efficiency_of, 0.5, lower=lower,
                                  upper=upper, rtol=rtol)
        assert threshold <= n <= threshold + rtol * n
        assert lower not in evaluated and upper not in evaluated

    def test_bracket_missing_low_returns_lower(self):
        evaluated = []

        def counted(n):
            evaluated.append(n)
            return saturating(n)

        assert required_problem_size(counted, 0.25, lower=150,
                                     upper=400) == 150
        assert evaluated[-1] == 150 and 400 not in evaluated


def doubling_from_lower(efficiency_of, target, lower=2, max_upper=1 << 22,
                        rtol=0.0):
    """The older unbracketed walk: after doubling, the bisection restarts
    from ``lower`` instead of the last failing doubling size."""
    if efficiency_of(lower) >= target:
        return lower
    hi = max(2 * lower, 16)
    while efficiency_of(hi) < target:
        if hi >= max_upper:
            raise MetricError("unreachable")
        hi = min(2 * hi, max_upper)
    lo = lower
    while hi - lo > 1 and hi - lo > rtol * hi:
        mid = (lo + hi) // 2
        if efficiency_of(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def doubling_sizes(lower, threshold, max_upper):
    """The sizes the unbracketed walk doubles through below ``threshold``."""
    sizes = [lower]
    size = max(2 * lower, 16)
    while size < threshold and size < max_upper:
        sizes.append(size)
        size = min(2 * size, max_upper)
    return sizes


class TestDoublingWalk:
    @given(case=monotone_steps(), lower=st.integers(1, 3000))
    @settings(max_examples=300, deadline=None)
    def test_same_answer_as_walk_from_lower(self, case, lower):
        efficiency_of, target = case
        kwargs = dict(lower=lower, max_upper=1 << 14)
        assert outcome(required_problem_size, efficiency_of, target,
                       **kwargs) == outcome(doubling_from_lower,
                                            efficiency_of, target, **kwargs)

    @given(threshold=st.integers(1, 6000), lower=st.integers(1, 3000),
           rtol=RTOLS)
    @settings(max_examples=300, deadline=None)
    def test_no_probe_below_last_failing_doubling_size(self, threshold,
                                                       lower, rtol):
        evaluated = []

        def efficiency_of(n):
            evaluated.append(n)
            return 1.0 if n >= threshold else 0.0

        n = required_problem_size(efficiency_of, 0.5, lower=lower,
                                  rtol=rtol)
        assert n == lower if lower >= threshold else (
            threshold <= n <= threshold + rtol * n)
        doubled = doubling_sizes(lower, threshold, 1 << 22)
        assert evaluated[:len(doubled)] == doubled
        assert all(p > doubled[-1] for p in evaluated[len(doubled):])

    def test_threshold_33_skips_the_failed_range(self):
        evaluated = []

        def efficiency_of(n):
            evaluated.append(n)
            return 1.0 if n >= 33 else 0.0

        assert required_problem_size(efficiency_of, 0.5, lower=2) == 33
        assert evaluated == [2, 16, 32, 64, 48, 40, 36, 34, 33]


class TestContinuousSolver:
    def test_root_matches_analytic_inverse(self):
        # 0.5 n/(n+100) = 0.25 <=> n = 100.
        n = required_size_continuous(saturating, 0.25)
        assert n == pytest.approx(100.0, rel=1e-4)

    def test_lower_already_satisfies(self):
        assert required_size_continuous(saturating, 0.25, lower=500.0) == 500.0

    def test_unreachable_raises(self):
        with pytest.raises(MetricError):
            required_size_continuous(saturating, 0.6, max_upper=1e7)

    def test_explicit_upper_too_small(self):
        with pytest.raises(MetricError):
            required_size_continuous(saturating, 0.25, upper=50.0)
