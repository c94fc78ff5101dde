"""Unit tests for the experiment runner layer."""

import pytest

from repro.apps.stencil import stencil_workload
from repro.apps.workload import ge_workload, mm_workload
from repro.experiments.runner import (
    APPLICATIONS,
    APP_ALIASES,
    MM_COLLECTIVES,
    collect_traces,
    marked_speed_of,
    resolve_app,
    run_app,
    run_ge,
    run_mm,
    run_stencil,
)
from repro.mpi.communicator import CollectiveConfig, mpi_run
from repro.sim.trace import Tracer


class TestRunGE:
    def test_measurement_fields(self, ge2_cluster, ge2_marked, ge2_record_n200):
        m = ge2_record_n200.measurement
        assert m.work == pytest.approx(ge_workload(200))
        assert m.marked_speed == pytest.approx(ge2_marked.total)
        assert m.problem_size == 200
        assert m.label == ge2_cluster.name
        assert 0 < m.speed_efficiency < 1

    def test_efficiency_increases_with_n(self, ge2_cluster, ge2_marked):
        e_small = run_ge(ge2_cluster, 60, marked=ge2_marked).speed_efficiency
        e_large = run_ge(ge2_cluster, 400, marked=ge2_marked).speed_efficiency
        assert e_small < e_large

    def test_two_node_anchor_near_paper(self, ge2_cluster, ge2_marked):
        """The calibration anchor: E_S ~ 0.3 around N ~ 310-350 on two
        nodes (the paper reads N ~ 310 and verifies 0.312)."""
        e = run_ge(ge2_cluster, 344, marked=ge2_marked).speed_efficiency
        assert e == pytest.approx(0.30, abs=0.02)

    def test_compute_efficiency_bounds_speed_efficiency(
        self, ge2_cluster, ge2_marked
    ):
        record = run_ge(
            ge2_cluster, 300, marked=ge2_marked, compute_efficiency=0.4
        )
        assert record.speed_efficiency < 0.4

    def test_tracer_passthrough(self, ge2_cluster, ge2_marked):
        tracer = Tracer()
        run_ge(ge2_cluster, 30, marked=ge2_marked, tracer=tracer)
        assert tracer.records

    def test_collective_config_changes_timing(self, ge4_cluster, ge4_marked):
        flat = run_ge(ge4_cluster, 150, marked=ge4_marked)
        tree = run_ge(
            ge4_cluster, 150, marked=ge4_marked,
            collectives=CollectiveConfig(bcast="binomial", barrier="tree"),
        )
        assert flat.measurement.time != tree.measurement.time


class TestRunMM:
    def test_measurement_fields(self, mm2_cluster, mm2_marked, mm2_record_n100):
        m = mm2_record_n100.measurement
        assert m.work == pytest.approx(mm_workload(100))
        assert m.marked_speed == pytest.approx(mm2_marked.total)

    def test_efficiency_increases_with_n(self, mm2_cluster, mm2_marked):
        e_small = run_mm(mm2_cluster, 20, marked=mm2_marked).speed_efficiency
        e_large = run_mm(mm2_cluster, 200, marked=mm2_marked).speed_efficiency
        assert e_small < e_large


class TestDispatch:
    def test_registry(self):
        assert set(APPLICATIONS) == {"ge", "mm", "stencil", "fft"}

    def test_run_app_dispatch(self, ge2_cluster, ge2_marked):
        record = run_app("ge", ge2_cluster, 50, marked=ge2_marked)
        assert record.measurement.problem_size == 50

    def test_unknown_app_rejected(self, ge2_cluster):
        with pytest.raises(KeyError):
            run_app("sort", ge2_cluster, 50)

    def test_aliases_resolve_to_registry_keys(self):
        for alias, key in APP_ALIASES.items():
            assert resolve_app(alias) == key
            assert key in APPLICATIONS

    def test_resolve_app_identity_and_rejection(self):
        assert resolve_app("ge") == "ge"
        with pytest.raises(KeyError):
            resolve_app("sort")

    def test_run_app_accepts_alias(self, ge2_cluster, ge2_marked):
        record = run_app("gaussian", ge2_cluster, 50, marked=ge2_marked)
        assert record.measurement.problem_size == 50


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(APPLICATIONS))
    def test_work_is_the_registry_workload(self, name, ge2_cluster,
                                           ge2_marked):
        entry = APPLICATIONS[name]
        record = run_app(name, ge2_cluster, 32, marked=ge2_marked)
        options = entry.options(n=32, speeds=tuple(ge2_marked.speeds),
                                **entry.extras(32))
        assert record.measurement.work == entry.workload(options)

    def test_fault_views_equal_the_registry(self, ge2_cluster, ge2_marked):
        from repro.faults import FaultInjector, FaultSchedule
        from repro.faults.run import APP_COMPUTE_EFFICIENCY, FaultyRun

        schedule = FaultSchedule(())
        for name, entry in APPLICATIONS.items():
            assert APP_COMPUTE_EFFICIENCY[name] == entry.compute_efficiency
            record = run_app(name, ge2_cluster, 32, marked=ge2_marked)
            faulty = FaultyRun(name, ge2_cluster, schedule,
                               FaultInjector(schedule), record, None)
            assert faulty.compute_efficiency == entry.compute_efficiency
            assert record.marked == ge2_marked
        assert set(APP_COMPUTE_EFFICIENCY) == set(APPLICATIONS)

    def test_cli_app_choices_are_registry_keys_and_aliases(self):
        from repro.cli import OPTIONS, build_parser

        assert set(OPTIONS["--app"]["choices"]) == (
            set(APPLICATIONS) | set(APP_ALIASES)
        )
        for name in OPTIONS["--app"]["choices"]:
            assert build_parser().parse_args(["memory", "--app", name])

    def test_mm_collectives_none_is_flat(self, mm4_cluster):
        configs = []

        def spy(*args, config=None, **kwargs):
            configs.append(config)
            return mpi_run(*args, config=config, **kwargs)

        flat = run_mm(mm4_cluster, 60, launcher=spy, collectives=None)
        default = run_mm(mm4_cluster, 60, launcher=spy)
        assert configs == [None, MM_COLLECTIVES]
        assert MM_COLLECTIVES.bcast == "ethernet"
        assert flat.measurement.time != default.measurement.time

    def test_runners_accept_exactly_their_keywords(self, ge2_cluster,
                                                   ge2_marked):
        record = run_stencil(ge2_cluster, 24, marked=ge2_marked, sweeps=3,
                             residual_every=1)
        assert record.measurement.work == stencil_workload(24, 3, 1)
        with pytest.raises(TypeError, match="sweeps"):
            run_ge(ge2_cluster, 24, marked=ge2_marked, sweeps=3)
        with pytest.raises(TypeError, match="round_scale"):
            run_ge(ge2_cluster, 24, marked=ge2_marked, round_scale=2)


class TestCollectTraces:
    def test_runs_are_collected_with_labels(self, ge2_cluster, ge2_marked):
        with collect_traces() as collector:
            run_ge(ge2_cluster, 50, marked=ge2_marked)
            run_mm(ge2_cluster, 20, marked=ge2_marked)
        assert len(collector.runs) == 2
        labels = [run.label for run in collector.runs]
        assert any("ge" in lbl for lbl in labels)
        assert all(run.tracer.records for run in collector.runs)

    def test_explicit_tracer_wins_over_collector(self, ge2_cluster, ge2_marked):
        mine = Tracer()
        with collect_traces() as collector:
            run_ge(ge2_cluster, 50, marked=ge2_marked, tracer=mine)
        assert mine.records
        # Explicitly traced runs keep their tracer, which the collector
        # exports along with the others.
        (run,) = collector.runs
        assert run.tracer is mine
        assert run.label == f"ge N=50 on {ge2_cluster.name}"

    def test_no_collection_outside_context(self, ge2_cluster, ge2_marked):
        with collect_traces() as collector:
            pass
        run_ge(ge2_cluster, 50, marked=ge2_marked)
        assert collector.runs == []


class TestMarkedSpeedOf:
    def test_ge2_total(self, ge2_cluster):
        marked = marked_speed_of(ge2_cluster)
        assert marked.total_mflops == pytest.approx(175.0, rel=0.02)

    def test_mm2_total(self, mm2_cluster):
        marked = marked_speed_of(mm2_cluster)
        assert marked.total_mflops == pytest.approx(180.0, rel=0.02)


class TestResolveAppMessage:
    def test_unknown_app_message_lists_choices(self):
        with pytest.raises(KeyError) as excinfo:
            resolve_app("sort")
        message = excinfo.value.args[0]
        assert "unknown application 'sort'" in message
        assert "'ge'" in message and "'fft'" in message
        assert "aliases" in message and "'gaussian'" in message

    def test_unresolvable_alias_target_reported(self):
        with pytest.raises(KeyError, match="unknown application"):
            resolve_app("quicksort")


class TestTraceDropping:
    def test_dropped_counted_past_limit(self, ge2_cluster, ge2_marked):
        from repro.experiments.runner import TraceCollector

        collector = TraceCollector(limit=10)
        with collect_traces(collector):
            run_ge(ge2_cluster, 50, marked=ge2_marked)
        (run,) = collector.runs
        assert len(run.tracer.records) == 10
        assert run.tracer.dropped > 0
        assert collector.dropped == run.tracer.dropped

    def test_exit_warns_once_via_structured_log(self, ge2_cluster,
                                                ge2_marked, capsys):
        from repro.experiments.runner import TraceCollector

        collector = TraceCollector(limit=10)
        with collect_traces(collector):
            run_ge(ge2_cluster, 50, marked=ge2_marked)
        (line,) = capsys.readouterr().err.splitlines()
        level, event, *pairs = line.split()
        assert level == "warning:"
        assert event == "trace.records_dropped"
        fields = dict(pair.split("=", 1) for pair in pairs)
        assert fields == {"dropped": str(collector.dropped), "limit": "10",
                          "runs": "1"}
        # Re-checking never duplicates the warning.
        collector.warn_if_dropped()
        assert capsys.readouterr().err == ""

    def test_no_warning_when_nothing_dropped(self, ge2_cluster, ge2_marked,
                                             capsys):
        from repro.experiments.runner import TraceCollector

        collector = TraceCollector()
        with collect_traces(collector):
            run_ge(ge2_cluster, 50, marked=ge2_marked)
        assert collector.dropped == 0
        assert collector.warn_if_dropped() == 0
        assert capsys.readouterr().err == ""

    def test_default_warning_goes_to_stderr(self, ge2_cluster, ge2_marked,
                                            capsys):
        from repro.experiments.runner import TraceCollector

        collector = TraceCollector(limit=10)
        with collect_traces(collector):
            run_ge(ge2_cluster, 50, marked=ge2_marked)
        assert capsys.readouterr().err.splitlines() == [
            f"warning: trace.records_dropped dropped={collector.dropped} "
            "limit=10 runs=1"
        ]
        # Re-checking the same collector never repeats the warning.
        assert collector.warn_if_dropped() == collector.dropped
        assert capsys.readouterr().err == ""

    def test_dropped_totals_across_runs(self, ge2_cluster, ge2_marked):
        """Per-run overflow counts sum: N identical truncated runs report
        exactly N times one run's overflow."""
        from repro.experiments.runner import TraceCollector

        collector = TraceCollector(limit=10)
        with collect_traces(collector):
            run_ge(ge2_cluster, 50, marked=ge2_marked)
            run_ge(ge2_cluster, 50, marked=ge2_marked)
            run_ge(ge2_cluster, 50, marked=ge2_marked)
        assert len(collector.runs) == 3
        per_run = [run.tracer.dropped for run in collector.runs]
        assert per_run[0] > 0
        assert per_run == [per_run[0]] * 3
        assert collector.dropped == sum(per_run)

    def test_stored_plus_dropped_is_conserved(self, ge2_cluster, ge2_marked):
        """Truncation loses storage, never accounting: stored + dropped
        equals the record count of an unlimited run."""
        from repro.experiments.runner import TraceCollector

        full = TraceCollector()
        with collect_traces(full):
            run_ge(ge2_cluster, 50, marked=ge2_marked)
        total = len(full.runs[0].tracer.records)
        assert full.dropped == 0

        truncated = TraceCollector(limit=10)
        with collect_traces(truncated):
            run_ge(ge2_cluster, 50, marked=ge2_marked)
        (run,) = truncated.runs
        assert len(run.tracer.records) + run.tracer.dropped == total

    def test_warning_reports_multi_run_totals(self, ge2_cluster, ge2_marked,
                                              capsys):
        from repro.experiments.runner import TraceCollector

        collector = TraceCollector(limit=10)
        with collect_traces(collector):
            run_ge(ge2_cluster, 50, marked=ge2_marked)
            run_ge(ge2_cluster, 50, marked=ge2_marked)
        (line,) = capsys.readouterr().err.splitlines()
        assert f" dropped={collector.dropped} " in line
        assert line.endswith(" runs=2")
