"""Tests for the run profiler (the `repro profile` engine room)."""

import json

import pytest

from repro.core.types import Measurement
from repro.experiments.runner import RunRecord
from repro.machine import ge_configuration
from repro.network.model import UniformCostNetwork
from repro.obs.profiler import build_report, profile_app
from repro.sim.engine import Engine
from repro.sim.events import Compute, Recv, Send
from repro.sim.trace import Tracer


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("prof")
    cluster = ge_configuration(2)
    return profile_app("ge", cluster, 60, out_dir=out), out


class TestProfileApp:
    def test_accepts_alias(self):
        cluster = ge_configuration(2)
        rep = profile_app("gaussian", cluster, 40)
        assert rep.app == "ge"
        assert rep.out_dir is None

    def test_writes_three_artifacts(self, report):
        rep, out = report
        for name in ("trace.json", "metrics.json", "summary.txt"):
            assert (out / name).exists(), name
        assert rep.out_dir == out

    def test_trace_is_chrome_event_array(self, report):
        _, out = report
        events = json.loads((out / "trace.json").read_text())
        assert isinstance(events, list) and events
        for ev in events:
            for key in ("ph", "ts", "dur", "pid", "tid"):
                assert key in ev

    def test_metrics_document(self, report):
        _, out = report
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["kind"] == "run-metrics"
        assert doc["counters"] and doc["histograms"]
        ranks = {c["labels"].get("rank") for c in doc["counters"]}
        assert len(ranks) > 1  # per-rank labelling present

    def test_per_rank_times_sum_to_makespan(self, report):
        rep, out = report
        doc = json.loads((out / "metrics.json").read_text())
        makespan = doc["run"]["makespan"]
        for row in doc["run"]["per_rank"]:
            total = (row["compute"] + row["send"] + row["recv_wait"]
                     + row["idle"])
            assert total == pytest.approx(makespan, abs=1e-9)
        for u in rep.utilization:
            assert (u.compute + u.send + u.recv_wait + u.idle
                    == pytest.approx(makespan, abs=1e-9))

    def test_critical_path_matches_makespan(self, report):
        rep, _ = report
        assert rep.path.complete
        assert rep.path.length == pytest.approx(
            rep.record.run.makespan, abs=1e-9
        )

    def test_summary_mentions_key_quantities(self, report):
        rep, out = report
        summary = (out / "summary.txt").read_text()
        assert "undelivered messages = 0" in summary
        assert "Per-rank time" in summary
        assert "Overhead decomposition" in summary
        assert "critical path" in summary
        assert "load-imbalance index" in summary
        assert summary.strip() == rep.summary.strip()

    def test_summary_has_rank_quantile_lines(self, report):
        _, out = report
        summary = (out / "summary.txt").read_text()
        assert "rank utilization quantiles:" in summary
        assert "busiest ranks:" in summary
        assert "idlest ranks:" in summary

    def test_rank_summary_block(self, report):
        rep, out = report
        summary = rep.rank_summary
        assert summary is not None
        assert summary["ranks"] == len(rep.record.run.stats)
        util = summary["utilization"]
        assert set(util) >= {"count", "mean", "p50", "p90", "p99"}
        assert 0.0 <= util["p99"] <= 1.0
        # The streamed quantiles land in metrics.json alongside per_rank,
        # so dashboards need not recompute them from the raw rows.
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["run"]["rank_summary"] == summary


    def test_truncated_trace_is_declared_in_metrics(self, tmp_path):
        rep = profile_app("ge", ge_configuration(2), 40, out_dir=tmp_path,
                          tracer_limit=50)
        doc = json.loads((tmp_path / "metrics.json").read_text())
        dropped = doc["run"]["trace_dropped"]
        assert dropped == rep.tracer.dropped > 0
        # Per-op counters cover the stored records only; the dropped
        # count accounts for the rest of the run's records.
        ops = sum(c["value"] for c in doc["counters"]
                  if c["name"] == "sim_ops_total")
        assert ops == 50
        full = profile_app("ge", ge_configuration(2), 40)
        assert ops + dropped == len(full.tracer)

    def test_untruncated_trace_declares_zero_dropped(self, report):
        _, out = report
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["run"]["trace_dropped"] == 0


class TestBuildReport:
    def make_record(self, program, nranks, tracer):
        engine = Engine(nranks, UniformCostNetwork(0.01), [1e6] * nranks,
                        tracer=tracer)
        run = engine.run(program)
        measurement = Measurement(
            work=1e3, time=run.makespan, marked_speed=2e6,
            problem_size=10, label="test-cluster",
        )
        return RunRecord(measurement, run)

    def test_undelivered_messages_in_summary(self):
        def program(rank):
            if rank == 0:
                yield Send(1, 8.0, tag=1)   # consumed
                yield Send(1, 8.0, tag=2)   # never received
            else:
                yield Recv(src=0, tag=1)
                yield Compute(seconds=0.01)

        tracer = Tracer()
        record = self.make_record(program, 2, tracer)
        assert record.run.undelivered_messages == 1
        report = build_report("ge", record, tracer)
        assert "undelivered messages = 1" in report.summary

    def test_engine_self_profile_in_summary(self):
        def program(rank):
            yield Compute(seconds=0.1)

        tracer = Tracer()
        record = self.make_record(program, 1, tracer)
        report = build_report("ge", record, tracer)
        assert "events/s" in report.summary
        assert "stale-pop ratio" in report.summary

    def test_decomposes_a_run_app_record_at_its_own_f(self):
        """A GE record from ``run_app`` is decomposed at GE's f, read from
        the record, not at f = 1."""
        from repro.apps.gaussian import GE_COMPUTE_EFFICIENCY
        from repro.experiments.runner import run_app

        tracer = Tracer()
        record = run_app("ge", ge_configuration(2), 60, tracer=tracer)
        decomp = build_report("ge", record, tracer).decomposition
        m = record.measurement
        assert decomp.compute_efficiency == GE_COMPUTE_EFFICIENCY < 1
        assert decomp.ideal_compute == pytest.approx(
            m.work / (GE_COMPUTE_EFFICIENCY * m.marked_speed))

    def test_summary_rank_table_lists_every_rank(self, report):
        rep, _ = report
        table = rep.summary.split("Per-rank time")[1].split("utilization [")[0]
        rows = [line.split()[0] for line in table.splitlines()
                if line.split() and line.split()[0].isdigit()]
        assert rows == [str(rank) for rank in range(ge_configuration(2).nranks)]

    def test_summary_has_utilization_timeline(self, report):
        rep, out = report
        (line,) = [ln for ln in rep.summary.splitlines()
                   if ln.startswith("utilization [")]
        assert len(line.split("[")[1].split("]")[0]) == 40
        assert line in (out / "summary.txt").read_text()
