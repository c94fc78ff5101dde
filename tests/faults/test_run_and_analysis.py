"""Fault drivers and degraded-metric analysis (acceptance: sweep shape)."""

import pytest

from repro.core.marked_speed import NodeMarkedSpeed, SystemMarkedSpeed
from repro.core.types import MetricError
from repro.experiments.executor import RunCache, SweepExecutor
from repro.experiments.runner import ledger_recording, marked_speed_of
from repro.faults.analysis import (
    FaultSweepRow,
    availability_weighted_speed,
    degraded_psi,
    fault_speed_efficiency,
)
from repro.faults.run import (
    render_sweep,
    run_app_under_faults,
    slowdown_sweep,
)
from repro.faults.schedule import (
    FaultSchedule,
    NodeCrash,
    NodeSlowdown,
    uniform_slowdown,
)
from repro.fuzz import check_invariants, check_sweep_invariants
from repro.machine.sunwulf import ge_configuration
from repro.obs.ledger import RunLedger


class TestAnalysisFunctions:
    def test_c_eff_weighted_sum(self):
        assert availability_weighted_speed(
            [100.0, 200.0], [1.0, 0.5]
        ) == pytest.approx(200.0)

    def test_c_eff_validates_lengths(self):
        with pytest.raises(MetricError):
            availability_weighted_speed([100.0], [1.0, 0.5])

    def test_c_eff_validates_range(self):
        with pytest.raises(MetricError):
            availability_weighted_speed([100.0], [1.5])

    def test_fault_speed_efficiency(self):
        assert fault_speed_efficiency(1e6, 2.0, 1e6) == pytest.approx(0.5)

    def test_degraded_psi_identity_when_unfaulted(self):
        assert degraded_psi(1e6, 1e6, 2.0, 2.0) == pytest.approx(1.0)

    def test_degraded_psi_is_overhead_ratio(self):
        # W=1e6, C=1e6 -> ideal compute 1.0; T=2 -> To=1; T'=3 -> To'=2.
        assert degraded_psi(1e6, 1e6, 2.0, 3.0) == pytest.approx(0.5)

    def test_monotone_check(self):
        def row(severity, psi):
            return FaultSweepRow(
                severity=severity, baseline_makespan=1.0, makespan=1.0,
                c_eff=1.0, speed_efficiency=1.0,
                fault_speed_efficiency=1.0, psi=psi,
            )

        assert check_sweep_invariants(
            [row(0.0, 1.0), row(0.2, 0.8), row(0.4, 0.8)]
        ) == []
        assert [v.kind for v in check_sweep_invariants(
            [row(0.0, 0.8), row(0.2, 0.9)]
        )] == ["monotonicity"]


class TestFaultyRun:
    def test_slowdown_degrades_psi_not_c_eff(self):
        cluster = ge_configuration(2)
        faulty = run_app_under_faults(
            "ge", cluster, 120, uniform_slowdown(cluster.nranks, 0.5)
        )
        assert faulty.psi < 1.0
        assert faulty.makespan > faulty.baseline.run.makespan
        # A slowdown costs time, not availability.
        assert faulty.availabilities == [1.0] * cluster.nranks
        assert faulty.c_eff == pytest.approx(faulty.faulted.marked.total)

    def test_crash_restart_lowers_availability(self):
        cluster = ge_configuration(2)
        base = run_app_under_faults(
            "ge", cluster, 120, FaultSchedule(), baseline=False
        )
        t = base.makespan
        schedule = FaultSchedule((
            NodeCrash(rank=1, at=0.3 * t, restart_delay=0.2 * t),
        ))
        faulty = run_app_under_faults("ge", cluster, 120, schedule)
        assert min(faulty.availabilities) < 1.0
        assert faulty.c_eff < faulty.faulted.marked.total
        assert faulty.fault_speed_efficiency > \
            faulty.faulted.speed_efficiency  # judged against less capacity

    def test_psi_requires_baseline(self):
        cluster = ge_configuration(2)
        faulty = run_app_under_faults(
            "ge", cluster, 120, FaultSchedule(), baseline=False
        )
        with pytest.raises(MetricError):
            faulty.psi

    def test_fault_metrics_block(self):
        cluster = ge_configuration(2)
        faulty = run_app_under_faults(
            "ge", cluster, 120, uniform_slowdown(cluster.nranks, 0.3)
        )
        metrics = faulty.fault_metrics()
        assert metrics["fault_events"] == float(cluster.nranks)
        assert metrics["degraded_psi"] == pytest.approx(faulty.psi)
        assert metrics["availability_min"] == 1.0

    def test_to_ledger_records_fault_block(self, tmp_path):
        cluster = ge_configuration(2)
        faulty = run_app_under_faults(
            "ge", cluster, 120, uniform_slowdown(cluster.nranks, 0.3)
        )
        ledger = RunLedger(tmp_path / "ledger")
        run_id = faulty.to_ledger(ledger)
        record = ledger.load(run_id)
        assert record["source"] == "faults"
        assert record["fault"]["profile_hash"] == faulty.fault_profile_hash
        assert len(record["fault"]["schedule"]["events"]) == cluster.nranks
        assert record["metrics"]["degraded_psi"] == pytest.approx(faulty.psi)
        assert ledger.history(source="faults")

    def test_faulted_run_passes_invariant_oracle(self):
        # The fuzzer's oracle, retrofitted onto the classic preset: a
        # slowdown run must satisfy causality, flops conservation and
        # the psi bound.
        cluster = ge_configuration(2)
        faulty = run_app_under_faults(
            "ge", cluster, 120, uniform_slowdown(cluster.nranks, 0.5)
        )
        violations = check_invariants(
            faulty.faulted.run,
            work=faulty.faulted.measurement.work,
            psi=faulty.psi,
            nranks=cluster.nranks,
        )
        assert violations == []

    def test_crash_restart_passes_invariant_oracle(self):
        # Crash+restart recomputes work, so skip conservation (the
        # recompute legitimately re-credits flops) but keep the rest.
        cluster = ge_configuration(2)
        base = run_app_under_faults(
            "ge", cluster, 120, FaultSchedule(), baseline=False
        )
        schedule = FaultSchedule((
            NodeCrash(rank=1, at=0.3 * base.makespan,
                      restart_delay=0.1 * base.makespan),
        ))
        faulty = run_app_under_faults("ge", cluster, 120, schedule)
        violations = check_invariants(
            faulty.faulted.run, psi=faulty.psi, nranks=cluster.nranks,
        )
        assert violations == []

    def test_oracle_flags_broken_psi(self):
        cluster = ge_configuration(2)
        faulty = run_app_under_faults("ge", cluster, 120, FaultSchedule())
        violations = check_invariants(faulty.faulted.run, psi=1.7)
        assert [v.kind for v in violations] == ["psi-bounds"]
        assert "1.7" in str(violations[0])

    def test_schedule_validated_against_cluster(self):
        from repro.faults.errors import FaultScheduleError

        cluster = ge_configuration(2)  # 2 ranks
        schedule = FaultSchedule((
            NodeSlowdown(rank=99, onset=0.0, duration=None, severity=0.5),
        ))
        with pytest.raises(FaultScheduleError):
            run_app_under_faults("ge", cluster, 120, schedule)


def _crash_and_slowdown(cluster, n):
    """A schedule with injector state to replay: events and downtime."""
    t = run_app_under_faults(
        "ge", cluster, n, FaultSchedule(), baseline=False
    ).makespan
    return FaultSchedule((
        NodeSlowdown(rank=0, onset=0.0, duration=None, severity=0.3),
        NodeCrash(rank=1, at=0.3 * t, restart_delay=0.1 * t),
    ))


def _events(faulty):
    return [(e.time, e.rank, e.kind, e.detail) for e in faulty.injector.events]


class TestExecutorPath:
    """Baseline and faulted runs go through one SweepExecutor batch."""

    def test_cached_executor_replays_bit_identically(self, tmp_path):
        cluster = ge_configuration(2)
        schedule = _crash_and_slowdown(cluster, 120)
        direct = run_app_under_faults("ge", cluster, 120, schedule)
        for want in ({"hits": 0, "misses": 2}, {"hits": 2, "misses": 0}):
            executor = SweepExecutor(cache=RunCache(tmp_path / "cache"))
            faulty = run_app_under_faults(
                "ge", cluster, 120, schedule, executor=executor
            )
            assert executor.cache_stats() == want
            assert faulty.psi == direct.psi
            assert faulty.makespan == direct.makespan
            assert _events(faulty) == _events(direct)
            assert faulty.injector.downtime == direct.injector.downtime
            assert faulty.injector.messages_dropped == \
                direct.injector.messages_dropped
        assert direct.injector.events and direct.injector.downtime

    def test_compute_efficiency_override_is_honored(self, tmp_path):
        # f travels with the run record: psi, the FaultyRun view and the
        # ledger's Theorem-1 metrics all use the override, cold and warm.
        cluster = ge_configuration(2)
        schedule = uniform_slowdown(cluster.nranks, 0.3)
        direct = run_app_under_faults(
            "ge", cluster, 60, schedule, compute_efficiency=0.3
        )
        work = direct.faulted.measurement.work
        assert direct.compute_efficiency == 0.3
        assert direct.psi == degraded_psi(
            work, direct.faulted.marked.total, direct.baseline.run.makespan,
            direct.makespan, compute_efficiency=0.3,
        )
        ledger = RunLedger(tmp_path / "ledger")
        with ledger_recording(ledger):
            for _ in ("cold", "warm"):
                faulty = run_app_under_faults(
                    "ge", cluster, 60, schedule, compute_efficiency=0.3,
                    executor=SweepExecutor(cache=RunCache(tmp_path / "c")),
                )
                assert faulty.compute_efficiency == 0.3
                assert faulty.psi == direct.psi
                faulty.to_ledger(ledger)
        entries = ledger.history()
        assert len(entries) == 6  # 2 runs + 1 fault record, twice
        ideal = work / (0.3 * direct.faulted.marked.total)
        for entry in entries:
            metrics = ledger.load(entry.run_id)["metrics"]
            assert metrics["theorem1_ideal_compute"] == pytest.approx(ideal)


class TestMarkedOverride:
    """ψ and C_eff read the marked speeds a run was given (``marked=``)
    from its record, not the cluster's measured ones."""

    def test_psi_and_c_eff_use_the_given_speeds(self, tmp_path):
        cluster = ge_configuration(2)
        half = SystemMarkedSpeed(tuple(
            NodeMarkedSpeed(node.name, node.flops_per_second / 2)
            for node in marked_speed_of(cluster).per_rank
        ))
        schedule = uniform_slowdown(cluster.nranks, 0.3)
        executors = [None] + [SweepExecutor(cache=RunCache(tmp_path / "c"))
                              for _ in ("cold", "warm")]
        for executor in executors:
            faulty = run_app_under_faults("ge", cluster, 60, schedule,
                                          marked=half, executor=executor)
            m = faulty.faulted.measurement
            assert faulty.faulted.marked == half
            assert m.marked_speed == half.total
            assert faulty.psi == degraded_psi(
                m.work, m.marked_speed, faulty.baseline.run.makespan,
                faulty.makespan, compute_efficiency=faulty.compute_efficiency,
            )
            assert faulty.psi == pytest.approx(0.93513, abs=5e-6)
            assert faulty.c_eff == 87.5e6
        assert executors[-1].hits == 2  # both runs replayed from the cache

    def test_runs_without_marked_are_unchanged(self):
        rows = slowdown_sweep("ge", ge_configuration(2), 60,
                              severities=(0.0, 0.3, 0.6))
        assert [(row.psi, row.c_eff) for row in rows] == [
            (1.0, 175e6),
            (0.9661697806527075, 175e6),
            (0.8908275519453972, 175e6),
        ]


class TestSlowdownSweep:
    @pytest.fixture(scope="class")
    def rows(self):
        # The acceptance configuration: SunWulf GE preset.
        return slowdown_sweep(
            "ge", ge_configuration(2), 120,
            severities=(0.0, 0.2, 0.4, 0.6),
        )

    def test_psi_monotone_nonincreasing(self, rows):
        assert not any(v.kind == "monotonicity"
                       for v in check_sweep_invariants(rows))

    def test_zero_severity_anchor(self, rows):
        assert rows[0].psi == pytest.approx(1.0)
        assert rows[0].slowdown == pytest.approx(1.0)

    def test_severity_strictly_degrades(self, rows):
        assert rows[-1].psi < rows[0].psi
        assert rows[-1].makespan > rows[0].makespan

    def test_render_sweep_table(self, rows):
        text = render_sweep(rows)
        assert "severity" in text and "psi" in text
        assert "0.60" in text
        assert "Scalability under faults" in text

    def test_sweep_passes_invariant_oracle(self, rows):
        assert check_sweep_invariants(rows) == []

    def test_sweep_oracle_flags_psi_inversion(self, rows):
        from dataclasses import replace

        # Forge a row where a *harsher* severity improved psi: the
        # monotonicity invariant must fire.
        broken = list(rows)
        broken[-1] = replace(broken[-1], psi=broken[0].psi + 0.1)
        kinds = {v.kind for v in check_sweep_invariants(broken)}
        assert "monotonicity" in kinds or "psi-bounds" in kinds
