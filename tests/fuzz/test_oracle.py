"""The invariant oracle: clean scenarios pass, planted bugs are caught."""

import json

import pytest

from repro.faults.analysis import FaultSweepRow
from repro.faults.schedule import FaultSchedule, NodeSlowdown
from repro.fuzz import (
    CheckConfig,
    check_bit_identity,
    check_invariants,
    check_scenario,
    check_sweep_invariants,
    dump_violation,
    run_scenario,
)

#: Trace + one monotonicity probe, no process pool -- the per-test budget.
FAST = CheckConfig(monotonicity_factors=(0.5,), bit_identity=False)


def mild_schedule(nranks):
    return FaultSchedule((
        NodeSlowdown(rank=0, onset=0.0, duration=None, severity=0.4),
    ))


class TestRunScenario:
    def test_clean_run_yields_full_faulty_surface(self, clean_scenario):
        faulty = run_scenario(clean_scenario)
        assert faulty.makespan > 0
        assert faulty.baseline is not None
        assert 0 < faulty.psi <= 1.0 + 1e-9

    def test_executor_path_matches_direct_path(self, clean_scenario):
        from repro.experiments.executor import SweepExecutor

        scenario = clean_scenario.with_schedule(
            mild_schedule(clean_scenario.nranks)
        )
        direct = run_scenario(scenario)
        via_exec = run_scenario(scenario, executor=SweepExecutor())
        assert via_exec.makespan == direct.makespan
        assert via_exec.psi == direct.psi

    def test_time_warp_reaches_faulted_runs_only(self, clean_scenario,
                                                 request):
        scenario = clean_scenario.with_schedule(
            mild_schedule(clean_scenario.nranks)
        )
        honest = run_scenario(scenario)
        request.getfixturevalue("time_warp")
        warped = run_scenario(scenario)
        # Free communication: the warped faulted run beats the honest
        # one, while the fault-free baseline is untouched.
        assert warped.makespan < honest.makespan
        assert warped.baseline.run.makespan == honest.baseline.run.makespan


class TestCheckScenario:
    def test_clean_scenario_passes(self, clean_scenario):
        report = check_scenario(clean_scenario, FAST)
        assert report.ok
        assert report.psi == pytest.approx(1.0)
        assert "invariants:faulted" in report.checks
        assert "trace-causality" in report.checks

    def test_faulted_scenario_passes(self, clean_scenario):
        scenario = clean_scenario.with_schedule(
            mild_schedule(clean_scenario.nranks)
        )
        report = check_scenario(scenario, FAST)
        assert report.ok
        assert report.psi < 1.0
        assert any(c.startswith("monotonicity") for c in report.checks)

    def test_time_warp_bug_is_detected(self, clean_scenario, time_warp):
        # The acceptance scenario: a network model that teleports
        # messages passes the engine's cheap guards but must trip the
        # oracle -- the faulted run beats its baseline (psi > 1).
        warped = clean_scenario.with_schedule(
            mild_schedule(clean_scenario.nranks)
        )
        report = check_scenario(warped, FAST)
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert kinds & {"psi-bounds", "monotonicity"}

    def test_detection_is_deterministic(self, clean_scenario, time_warp):
        warped = clean_scenario.with_schedule(
            mild_schedule(clean_scenario.nranks)
        )
        first = check_scenario(warped, FAST)
        second = check_scenario(warped, FAST)
        assert [v.kind for v in first.violations] == \
            [v.kind for v in second.violations]
        assert first.psi == second.psi

    def test_report_payload_is_json_clean(self, clean_scenario):
        report = check_scenario(clean_scenario, FAST)
        payload = report.to_payload()
        json.dumps(payload)  # must not raise
        assert payload["ok"] is True
        assert payload["scenario_hash"] == clean_scenario.scenario_hash()


def forged_row(psi=0.9, makespan=1.0, baseline=1.0):
    return FaultSweepRow(
        severity=0.2, baseline_makespan=baseline, makespan=makespan,
        c_eff=1.0, speed_efficiency=1.0, fault_speed_efficiency=1.0,
        psi=psi,
    )


class TestOnePredicatePerProperty:
    """Run, scenario and sweep checks report a property the same way."""

    def test_forged_psi_is_psi_bounds_everywhere(self, clean_scenario):
        run = run_scenario(clean_scenario, baseline=False).faulted.run
        assert [v.kind for v in check_invariants(run, psi=1.7)] == \
            ["psi-bounds"]
        assert [v.kind for v in check_sweep_invariants(
            [forged_row(psi=1.7)]
        )] == ["psi-bounds"]

    def test_faster_than_baseline_is_monotonicity_everywhere(
        self, clean_scenario, time_warp
    ):
        assert [v.kind for v in check_sweep_invariants(
            [forged_row(makespan=0.5)]
        )] == ["monotonicity"]
        warped = clean_scenario.with_schedule(
            mild_schedule(clean_scenario.nranks)
        )
        report = check_scenario(warped, CheckConfig(monotonicity_factors=()))
        assert report.makespan < report.baseline_makespan
        dominance = [v for v in report.violations
                     if "baseline_makespan" in v.context]
        assert [v.kind for v in dominance] == ["monotonicity"]


class TestBitIdentity:
    def test_serial_pool_and_cache_agree(self, clean_scenario):
        scenario = clean_scenario.with_schedule(
            mild_schedule(clean_scenario.nranks)
        )
        assert check_bit_identity(scenario) == []


class TestDumpViolation:
    def test_artifacts_written(self, clean_scenario, time_warp, tmp_path):
        warped = clean_scenario.with_schedule(
            mild_schedule(clean_scenario.nranks)
        )
        report = check_scenario(warped, FAST)
        assert not report.ok
        doc = dump_violation(report, directory=tmp_path / "artifacts")
        assert doc.is_file()
        raw = json.loads(doc.read_text())
        assert raw["kind"] == "fuzz-violation"
        assert raw["violations"]
        # The flight ring dump lands alongside the violation document.
        dumps = list((tmp_path / "artifacts").glob("*flight*.json"))
        assert dumps
