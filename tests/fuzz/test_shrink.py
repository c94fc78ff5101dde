"""Delta-debugging shrinker: minimal reproducers, deterministically.

The acceptance test for the whole fuzz pipeline lives here: a planted
causality bug (time-warp network) is detected by the oracle and then
shrunk to a minimal scenario -- deterministically, so the minimized
reproducer is stable across runs and platforms.
"""

import pytest

from repro.faults.schedule import FaultSchedule, NodeSlowdown
from repro.fuzz import (
    CheckConfig,
    ClusterModel,
    Scenario,
    check_scenario,
    shrink_scenario,
)

FAST = CheckConfig(monotonicity_factors=(0.5,), bit_identity=False)


def big_scenario():
    """A deliberately oversized starting point for shrinking."""
    cluster = ClusterModel(groups=(("blade", 2), ("v210", 2)), network="bus")
    schedule = FaultSchedule((
        NodeSlowdown(rank=0, onset=0.0, duration=None, severity=0.3),
        NodeSlowdown(rank=1, onset=0.0, duration=None, severity=0.2),
    ))
    return Scenario(app="ge", n=128, cluster=cluster, schedule=schedule)


class TestShrinkMechanics:
    def test_shrinks_toward_empty_when_anything_fails(self):
        # An always-failing predicate: the shrinker must strip the
        # schedule entirely and walk n and the cluster to their floors.
        result = shrink_scenario(big_scenario(), lambda s: True)
        assert result.scenario.schedule.is_empty
        assert result.scenario.n <= 32
        assert result.scenario.nranks == 2
        assert result.steps  # each reduction is recorded

    def test_respects_evaluation_budget(self):
        calls = []

        def predicate(s):
            calls.append(s)
            return True

        shrink_scenario(big_scenario(), predicate, max_evaluations=3)
        assert len(calls) <= 3

    def test_nothing_to_do_when_predicate_never_holds(self):
        original = big_scenario()
        result = shrink_scenario(original, lambda s: False)
        assert result.scenario == original
        assert result.steps == []

    def test_single_event_schedule_can_reach_empty(self):
        scenario = big_scenario().with_schedule(FaultSchedule((
            NodeSlowdown(rank=0, onset=0.0, duration=None, severity=0.5),
        )))
        result = shrink_scenario(scenario, lambda s: True)
        assert result.scenario.schedule.is_empty


class TestPlantedBugAcceptance:
    """ISSUE acceptance: detect + deterministically shrink a planted bug."""

    @pytest.fixture
    def shrunk(self, time_warp):
        original = big_scenario()
        report = check_scenario(original, FAST)
        assert not report.ok, "planted bug must be detected"
        kinds = {v.kind for v in report.violations}
        assert kinds & {"psi-bounds", "monotonicity"}

        def still_fails(candidate):
            probe = check_scenario(candidate, FAST)
            return bool(kinds & {v.kind for v in probe.violations})

        return (
            shrink_scenario(original, still_fails, max_evaluations=60),
            kinds,
        )

    def test_minimized_scenario_still_reproduces(self, shrunk):
        result, kinds = shrunk
        probe = check_scenario(result.scenario, FAST)
        assert kinds & {v.kind for v in probe.violations}

    def test_minimized_scenario_is_actually_smaller(self, shrunk):
        result, _ = shrunk
        original = big_scenario()
        assert result.scenario.n <= original.n
        assert result.scenario.nranks <= original.nranks
        assert len(result.scenario.schedule) <= len(original.schedule)
        # The time-warp bug needs no faults at all: the schedule must
        # have been stripped entirely.
        assert result.scenario.schedule.is_empty

    def test_shrinking_is_deterministic(self, shrunk, time_warp):
        result, kinds = shrunk
        original = big_scenario()

        def still_fails(candidate):
            probe = check_scenario(candidate, FAST)
            return bool(kinds & {v.kind for v in probe.violations})

        again = shrink_scenario(original, still_fails, max_evaluations=60)
        assert again.scenario.scenario_hash() == \
            result.scenario.scenario_hash()
        assert again.steps == result.steps
