"""Tests for the persistent run ledger."""

import pytest

from repro.core import MetricError
from repro.experiments import ledger_recording, run_ge
from repro.machine import ge_configuration
from repro.obs.ledger import (
    RUN_RECORD_KIND,
    RunLedger,
    cluster_spec_hash,
    default_ledger_root,
    environment_info,
    git_sha,
)


@pytest.fixture(scope="module")
def cluster():
    return ge_configuration(2)


@pytest.fixture(scope="module")
def record(cluster):
    return run_ge(cluster, 40)


class TestProvenance:
    def test_git_sha_of_this_repo(self):
        sha = git_sha()
        assert sha is None or (len(sha) == 40 and set(sha) <= set("0123456789abcdef"))

    def test_git_sha_outside_a_repo(self, tmp_path):
        assert git_sha(cwd=tmp_path) is None

    def test_cluster_hash_is_stable_and_sensitive(self, cluster):
        assert cluster_spec_hash(cluster) == cluster_spec_hash(cluster)
        other = ge_configuration(4)
        assert cluster_spec_hash(cluster) != cluster_spec_hash(other)
        assert len(cluster_spec_hash(cluster)) == 16

    def test_environment_info_fields(self):
        env = environment_info()
        assert set(env) == {"git_sha", "python", "platform", "repro_version"}
        assert env["python"].count(".") == 2

    def test_default_root_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "elsewhere"))
        assert default_ledger_root() == tmp_path / "elsewhere"


class TestRecordRun:
    def test_record_and_load(self, tmp_path, cluster, record):
        ledger = RunLedger(tmp_path / "ledger")
        run_id = ledger.record_run("ge", cluster, record)
        assert "-ge-n40-" in run_id

        loaded = ledger.load(run_id)
        assert loaded["kind"] == RUN_RECORD_KIND
        assert loaded["app"] == "ge"
        assert loaded["problem_size"] == 40
        assert loaded["cluster"]["name"] == cluster.name
        assert loaded["cluster"]["spec_hash"] == cluster_spec_hash(cluster)
        metrics = loaded["metrics"]
        assert metrics["makespan"] == pytest.approx(record.run.makespan)
        assert metrics["speed_efficiency"] == pytest.approx(
            record.measurement.speed_efficiency
        )
        assert 0.0 <= metrics["imbalance_index"]
        # Theorem-1 residual: To = max(0, T - ideal - t0).
        assert metrics["theorem1_overhead"] == pytest.approx(max(
            0.0,
            metrics["makespan"] - metrics["theorem1_ideal_compute"]
            - metrics["theorem1_t0"],
        ))

    def test_index_line_matches_record(self, tmp_path, cluster, record):
        ledger = RunLedger(tmp_path / "ledger")
        run_id = ledger.record_run("ge", cluster, record)
        (entry,) = ledger.history()
        assert entry.run_id == run_id
        assert entry.app == "ge"
        assert entry.source == "run"
        assert entry.makespan == pytest.approx(record.run.makespan)

    def test_extra_metrics_merged(self, tmp_path, cluster, record):
        ledger = RunLedger(tmp_path / "ledger")
        run_id = ledger.record_run(
            "ge", cluster, record, extra_metrics={"custom": 3.0}
        )
        assert ledger.load(run_id)["metrics"]["custom"] == 3.0

    def test_rank_summary_block_and_flat_quantiles(self, tmp_path, cluster,
                                                   record):
        ledger = RunLedger(tmp_path / "ledger")
        run_id = ledger.record_run("ge", cluster, record)
        loaded = ledger.load(run_id)

        summary = loaded["rank_summary"]
        assert summary["ranks"] == len(record.run.stats)
        assert summary["makespan"] == pytest.approx(record.run.makespan)
        util = summary["utilization"]
        assert set(util) >= {"count", "mean", "p50", "p90", "p99"}
        assert 0.0 <= util["p50"] <= 1.0
        assert len(summary["top_busiest"]) == min(3, summary["ranks"])
        # Busiest/idlest never list the same rank twice; with few ranks
        # the idlest list simply has fewer (possibly zero) entries.
        busiest_ranks = {e["rank"] for e in summary["top_busiest"]}
        idlest_ranks = {e["rank"] for e in summary["top_idlest"]}
        assert not busiest_ranks & idlest_ranks
        if summary["top_idlest"]:
            assert summary["top_busiest"][0]["utilization"] >= \
                summary["top_idlest"][0]["utilization"]

        # The flat mirror is what the regression gate can compare.
        metrics = loaded["metrics"]
        for key in ("utilization_p50", "utilization_p90",
                    "utilization_p99", "utilization_mean"):
            assert metrics[key] == pytest.approx(util[key[len("utilization_"):]])
        # ... and it mirrors the exact quantile of the per-rank sample.
        makespan = record.run.makespan
        ordered = sorted(st.utilization(makespan) for st in record.run.stats)
        pos = 0.9 * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        p90 = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
        assert metrics["utilization_p90"] == pytest.approx(p90, rel=1e-12)


class TestHistory:
    def test_newest_first_with_filters(self, tmp_path, cluster, record):
        ledger = RunLedger(tmp_path / "ledger")
        first = ledger.record_run("ge", cluster, record)
        second = ledger.record_run("mm", cluster, record, source="profile")
        third = ledger.record_run("ge", cluster, record)

        assert [e.run_id for e in ledger.history()] == [third, second, first]
        assert [e.run_id for e in ledger.history(app="ge")] == [third, first]
        assert [e.run_id for e in ledger.history(source="profile")] == [second]
        assert len(ledger.history(limit=1)) == 1

    def test_empty_ledger(self, tmp_path):
        ledger = RunLedger(tmp_path / "nothing")
        assert ledger.history() == []

    def test_torn_index_line_skipped(self, tmp_path, cluster, record):
        ledger = RunLedger(tmp_path / "ledger")
        run_id = ledger.record_run("ge", cluster, record)
        # An interrupted append, and lines that parse but are no entry.
        for line in ('{"run_id": "torn-', "[1, 2]", '{"run_id": 7}', "{}"):
            with ledger.index_path.open("a") as handle:
                handle.write(line + "\n")
            assert [e.run_id for e in ledger.history()] == [run_id], line


class TestLoadAndResolve:
    def test_unique_prefix(self, tmp_path, cluster, record):
        ledger = RunLedger(tmp_path / "ledger")
        run_id = ledger.record_run("ge", cluster, record)
        assert ledger.load(run_id[:-2])["run_id"] == run_id

    def test_malformed_run_document_rejected(self, tmp_path):
        from repro.experiments.persistence import write_json_document

        ledger = RunLedger(tmp_path / "ledger")
        write_json_document(ledger.runs_dir / "odd.json", kind=RUN_RECORD_KIND,
                            payload={"run_id": "odd", "metrics": [1, 2]})
        with pytest.raises(MetricError, match="'metrics' is not"):
            ledger.load("odd")
        write_json_document(ledger.runs_dir / "num.json", kind=RUN_RECORD_KIND,
                            payload={"run_id": 3, "metrics": {}})
        with pytest.raises(MetricError, match="'run_id' is not a string"):
            ledger.load("num")
        (ledger.runs_dir / "list.json").write_text("[1, 2]")
        with pytest.raises(MetricError, match="JSON object"):
            ledger.load("list")
        (ledger.runs_dir / "torn.json").write_text("{not json")
        with pytest.raises(MetricError, match="corrupt"):
            ledger.load("torn")

    def test_missing_run_id(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        with pytest.raises(MetricError, match="no run 'nope'"):
            ledger.load("nope")

    def test_ambiguous_prefix(self, tmp_path, cluster, record):
        ledger = RunLedger(tmp_path / "ledger")
        a = ledger.record_run("ge", cluster, record)
        b = ledger.record_run("ge", cluster, record)
        shared = ""
        for x, y in zip(a, b):
            if x != y:
                break
            shared += x
        with pytest.raises(MetricError, match="ambiguous"):
            ledger.load(shared)


class TestAmbientRecording:
    def test_runs_recorded_inside_context(self, tmp_path, cluster):
        ledger = RunLedger(tmp_path / "ledger")
        with ledger_recording(ledger):
            run_ge(cluster, 40)
            run_ge(cluster, 50)
        entries = ledger.history()
        assert len(entries) == 2
        assert {e.problem_size for e in entries} == {40, 50}
        assert all(e.source == "run" for e in entries)

    def test_no_recording_outside_context(self, tmp_path, cluster,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
        run_ge(cluster, 40)
        assert RunLedger().history() == []
