"""Adversarial search: cost model, hill climbing, resilience curves."""

import pytest

from repro.faults.schedule import (
    FaultSchedule,
    LinkDegradation,
    MessageLoss,
    NodeCrash,
    NodeSlowdown,
)
from repro.fuzz import (
    FuzzError,
    attack,
    attack_to_ledger,
    injected_cost,
    render_attack_curve,
    resilience_curve,
)
from repro.obs.ledger import RunLedger


class TestInjectedCost:
    def test_empty_schedule_costs_nothing(self):
        assert injected_cost(FaultSchedule(), 10.0) == 0.0

    def test_slowdown_cost_is_severity_times_window(self):
        sched = FaultSchedule((
            NodeSlowdown(rank=0, onset=0.0, duration=5.0, severity=0.4),
        ))
        assert injected_cost(sched, 10.0) == pytest.approx(0.4 * 5.0 / 10.0)

    def test_open_windows_clip_at_horizon(self):
        sched = FaultSchedule((
            NodeSlowdown(rank=0, onset=0.0, duration=None, severity=0.5),
        ))
        assert injected_cost(sched, 10.0) == pytest.approx(0.5)

    def test_crash_and_link_and_loss_terms(self):
        horizon = 10.0
        crash = FaultSchedule((
            NodeCrash(rank=0, at=2.0, restart_delay=1.0,
                      recompute_seconds=0.5),
        ))
        assert injected_cost(crash, horizon) == pytest.approx(1.5 / 10.0)
        failstop = FaultSchedule((NodeCrash(rank=0, at=8.0),))
        assert injected_cost(failstop, horizon) == pytest.approx(0.2)
        link = FaultSchedule((
            LinkDegradation(onset=0.0, duration=10.0, bandwidth_factor=0.5,
                            latency_factor=2.0),
        ))
        assert injected_cost(link, horizon) == pytest.approx(2.0)
        loss = FaultSchedule((MessageLoss(src=0, dst=1, every=2),))
        assert injected_cost(loss, horizon) == pytest.approx(1.0)

    def test_scaling_scales_cost_down(self):
        sched = FaultSchedule((
            NodeSlowdown(rank=0, onset=0.0, duration=5.0, severity=0.8),
            LinkDegradation(onset=0.0, duration=5.0, bandwidth_factor=0.5),
        ))
        full = injected_cost(sched, 10.0)
        half = injected_cost(sched.scaled(0.5), 10.0)
        assert half < full

    def test_bad_horizon_rejected(self):
        with pytest.raises(FuzzError):
            injected_cost(FaultSchedule(), 0.0)


class TestAttack:
    def test_budget_is_respected(self, tiny_cluster):
        result = attack("ge", tiny_cluster, 64, budget=0.3, iterations=6,
                        seed=1)
        assert result.cost <= 0.3 + 1e-9
        assert 0 < result.psi <= 1.0 + 1e-9
        assert result.scenario.schedule.events  # found *some* attack

    def test_deterministic_for_fixed_arguments(self, tiny_cluster):
        a = attack("ge", tiny_cluster, 64, budget=0.4, iterations=6, seed=2)
        b = attack("ge", tiny_cluster, 64, budget=0.4, iterations=6, seed=2)
        assert a.scenario.scenario_hash() == b.scenario.scenario_hash()
        assert a.psi == b.psi
        assert a.score == b.score

    def test_degrades_psi_below_unfaulted(self, tiny_cluster):
        result = attack("ge", tiny_cluster, 64, budget=0.6, iterations=10,
                        seed=0)
        assert result.psi < 1.0

    def test_crashing_candidate_is_logged_and_skipped(self, tiny_cluster,
                                                       monkeypatch, capsys):
        from repro.fuzz import search
        from repro.sim.errors import ProtocolError

        real = search.run_scenario
        calls = []

        def second_and_third_calls_crash(scenario, **kwargs):
            calls.append(scenario)
            if len(calls) in (2, 3):  # the first candidates after the seed
                raise ProtocolError("candidate blew up")
            return real(scenario, **kwargs)

        monkeypatch.setattr(search, "run_scenario",
                            second_and_third_calls_crash)
        result = attack("ge", tiny_cluster, 64, budget=0.4, iterations=6,
                        seed=2)
        assert len(calls) >= 4  # the search went on past both crashes
        assert result.evaluations == len(calls)
        # Two crashes, one warning per attack.
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("warning: fuzz.attack.candidate_crashed move=")
        assert line.endswith(" error=candidate blew up")

    def test_rejects_bad_arguments(self, tiny_cluster):
        with pytest.raises(FuzzError):
            attack("ge", tiny_cluster, 64, budget=0.0)
        with pytest.raises(FuzzError):
            attack("ge", tiny_cluster, 64, iterations=0)


class TestResilienceCurve:
    def test_curve_shape_and_rendering(self, tiny_cluster):
        results = resilience_curve(
            "ge", tiny_cluster, 64, budgets=[0.6, 0.2], iterations=4, seed=0,
        )
        # Budgets are sorted ascending regardless of input order.
        assert [r.budget for r in results] == [0.2, 0.6]
        for r in results:
            assert r.cost <= r.budget + 1e-9
        text = render_attack_curve(results, title="curve")
        assert "budget" in text and "psi" in text and "curve" in text

    def test_empty_budgets_rejected(self, tiny_cluster):
        with pytest.raises(FuzzError):
            resilience_curve("ge", tiny_cluster, 64, budgets=[])

    def test_attack_to_ledger_records_attack_source(self, tiny_cluster,
                                                    tmp_path):
        result = attack("ge", tiny_cluster, 64, budget=0.4, iterations=3,
                        seed=0)
        ledger = RunLedger(tmp_path / "ledger")
        run_id = attack_to_ledger(result, ledger)
        record = ledger.load(run_id)
        assert record["source"] == "attack"
        assert record["metrics"]["attack_budget"] == result.budget
        assert record["metrics"]["attack_score"] == result.score
        assert record["metrics"]["degraded_psi"] == pytest.approx(result.psi)
        assert record["fault"]["schedule"]["events"]
