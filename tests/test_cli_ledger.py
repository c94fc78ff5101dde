"""Tests for the run-ledger CLI commands: history / compare / baseline.

Covers the acceptance path end to end: `repro profile` records a ledger
run, `repro history` lists it, `repro compare` prints per-metric deltas,
and `repro baseline check` exits nonzero on an injected makespan
regression past the FAIL threshold.
"""

import json

import pytest

from repro.cli import main
from repro.obs.ledger import RunLedger


@pytest.fixture
def ledger_dir(tmp_path):
    return tmp_path / "ledger"


def profile_run(ledger_dir, tmp_path, size=120):
    """One recorded profile run; returns its run id."""
    out = tmp_path / f"prof-{size}"
    code = main([
        "profile", "gaussian", "--nodes", "2", "--size", str(size),
        "--out", str(out), "--ledger", str(ledger_dir),
    ])
    assert code == 0
    entries = RunLedger(ledger_dir).history(limit=1)
    assert entries, "profile did not record a ledger run"
    return entries[0].run_id


class TestProfileRecords:
    def test_profile_writes_ledger_record(self, capsys, tmp_path, ledger_dir):
        run_id = profile_run(ledger_dir, tmp_path)
        out = capsys.readouterr().out
        assert f"ledger: recorded run {run_id}" in out
        record = RunLedger(ledger_dir).load(run_id)
        assert record["source"] == "profile"
        assert record["app"] == "ge"
        assert record["metrics"]["makespan"] > 0
        assert record["metrics"]["critical_path_length"] > 0

    def test_ledger_env_var_respected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "env-ledger"))
        main(["profile", "gaussian", "--nodes", "2", "--size", "100",
              "--out", str(tmp_path / "prof")])
        assert RunLedger(tmp_path / "env-ledger").history()

    def test_table_command_records_with_ledger_flag(self, capsys, tmp_path,
                                                    ledger_dir):
        main(["table2", "--ledger", str(ledger_dir)])
        entries = RunLedger(ledger_dir).history()
        assert entries
        assert all(e.source == "run" and e.app == "ge" for e in entries)


class TestHistory:
    def test_lists_recorded_runs(self, capsys, tmp_path, ledger_dir):
        run_id = profile_run(ledger_dir, tmp_path)
        capsys.readouterr()
        assert main(["history", "--ledger", str(ledger_dir)]) == 0
        out = capsys.readouterr().out
        assert "Run ledger" in out
        assert run_id in out
        assert "profile" in out

    def test_empty_ledger_message(self, capsys, ledger_dir):
        assert main(["history", "--ledger", str(ledger_dir)]) == 0
        out = capsys.readouterr().out
        assert "no matching runs" in out

    def test_non_entry_index_line_skipped(self, capsys, ledger_dir):
        ledger_dir.mkdir()
        (ledger_dir / "index.jsonl").write_text("[1, 2]\n")
        assert main(["history", "--ledger", str(ledger_dir)]) == 0
        assert "no matching runs" in capsys.readouterr().out

    def test_app_filter_excludes(self, capsys, tmp_path, ledger_dir):
        run_id = profile_run(ledger_dir, tmp_path)
        capsys.readouterr()
        main(["history", "--ledger", str(ledger_dir), "--app", "fft"])
        assert run_id not in capsys.readouterr().out


class TestCompare:
    def test_compare_latest_to_itself(self, capsys, tmp_path, ledger_dir):
        profile_run(ledger_dir, tmp_path)
        capsys.readouterr()
        code = main(["compare", "--ledger", str(ledger_dir),
                     "latest", "latest"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Run comparison" in out
        assert "makespan" in out
        assert "overall verdict: PASS" in out

    def test_compare_two_runs_shows_deltas(self, capsys, tmp_path,
                                           ledger_dir):
        a = profile_run(ledger_dir, tmp_path, size=100)
        b = profile_run(ledger_dir, tmp_path, size=140)
        capsys.readouterr()
        main(["compare", "--ledger", str(ledger_dir), a, b])
        out = capsys.readouterr().out
        assert "speed_efficiency" in out
        assert "%" in out  # relative deltas rendered

    def test_unknown_run_exits_with_error(self, capsys, ledger_dir):
        with pytest.raises(SystemExit, match="error:"):
            main(["compare", "--ledger", str(ledger_dir), "nope", "latest"])

    def test_malformed_record_file_exits_with_error(self, capsys, tmp_path,
                                                     ledger_dir):
        ok, bad = tmp_path / "ok.json", tmp_path / "bad.json"
        ok.write_text('{"metrics": {"makespan": 1.0}}')
        bad.write_text('{"metrics": [1, 2]}')
        with pytest.raises(SystemExit, match="error: .*'metrics' is not"):
            main(["compare", "--ledger", str(ledger_dir), str(ok), str(bad)])

    def test_check_flag_fails_on_regression(self, capsys, tmp_path,
                                            ledger_dir):
        run_id = profile_run(ledger_dir, tmp_path)
        worse = _injected_regression(ledger_dir, run_id, tmp_path)
        capsys.readouterr()
        assert main(["compare", "--ledger", str(ledger_dir),
                     run_id, str(worse), "--check"]) == 1


def _injected_regression(ledger_dir, run_id, tmp_path, factor=1.5):
    """A copy of a recorded run with makespan inflated past FAIL threshold."""
    path = RunLedger(ledger_dir).runs_dir / f"{run_id}.json"
    document = json.loads(path.read_text())
    document["run_id"] = f"{run_id}-regressed"
    document["metrics"]["makespan"] *= factor
    out = tmp_path / "regressed.json"
    out.write_text(json.dumps(document))
    return out


class TestBaseline:
    def test_set_then_check_passes(self, capsys, tmp_path, ledger_dir):
        baselines = tmp_path / "baselines"
        profile_run(ledger_dir, tmp_path)
        assert main(["baseline", "--ledger", str(ledger_dir), "set",
                     "latest", "--baselines", str(baselines)]) == 0
        assert (baselines / "default.json").exists()
        code = main(["baseline", "--ledger", str(ledger_dir), "check",
                     "latest", "--baselines", str(baselines)])
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline 'default' set" in out
        assert "overall verdict: PASS" in out

    def test_check_fails_on_injected_makespan_regression(
        self, capsys, tmp_path, ledger_dir
    ):
        baselines = tmp_path / "baselines"
        run_id = profile_run(ledger_dir, tmp_path)
        main(["baseline", "--ledger", str(ledger_dir), "set", "latest",
              "--baselines", str(baselines)])
        worse = _injected_regression(ledger_dir, run_id, tmp_path)
        capsys.readouterr()
        code = main(["baseline", "--ledger", str(ledger_dir), "check",
                     str(worse), "--baselines", str(baselines)])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL: metric regression past threshold: makespan" in out

    def test_malformed_baseline_exits_with_error(self, capsys, tmp_path,
                                                 ledger_dir):
        from repro.experiments.persistence import write_json_document
        from repro.obs.regression import BASELINE_KIND

        baselines = tmp_path / "baselines"
        write_json_document(baselines / "default.json", kind=BASELINE_KIND,
                            payload={"record": {"metrics": [1, 2]}})
        profile_run(ledger_dir, tmp_path)
        with pytest.raises(SystemExit, match="error: .*'metrics' is not"):
            main(["baseline", "--ledger", str(ledger_dir), "check",
                  "latest", "--baselines", str(baselines)])

    def test_warn_only_downgrades_exit(self, capsys, tmp_path, ledger_dir):
        baselines = tmp_path / "baselines"
        run_id = profile_run(ledger_dir, tmp_path)
        main(["baseline", "--ledger", str(ledger_dir), "set", "latest",
              "--baselines", str(baselines)])
        worse = _injected_regression(ledger_dir, run_id, tmp_path)
        code = main(["baseline", "--ledger", str(ledger_dir), "check",
                     str(worse), "--baselines", str(baselines),
                     "--warn-only"])
        assert code == 0

    def test_check_without_baseline_warns_and_passes(self, capsys, tmp_path,
                                                     ledger_dir):
        profile_run(ledger_dir, tmp_path)
        capsys.readouterr()
        code = main(["baseline", "--ledger", str(ledger_dir), "check",
                     "latest", "--baselines", str(tmp_path / "none")])
        assert code == 0
        assert "WARN: no baseline" in capsys.readouterr().out

    def test_named_baseline(self, capsys, tmp_path, ledger_dir):
        baselines = tmp_path / "baselines"
        profile_run(ledger_dir, tmp_path)
        main(["baseline", "--ledger", str(ledger_dir), "set", "latest",
              "--name", "nightly", "--baselines", str(baselines)])
        assert (baselines / "nightly.json").exists()
        assert main(["baseline", "--ledger", str(ledger_dir), "check",
                     "latest", "--name", "nightly",
                     "--baselines", str(baselines)]) == 0

    def test_baseline_env_var_respected(self, capsys, tmp_path, ledger_dir,
                                        monkeypatch):
        baselines = tmp_path / "env-baselines"
        monkeypatch.setenv("REPRO_BASELINE_DIR", str(baselines))
        profile_run(ledger_dir, tmp_path)
        main(["baseline", "--ledger", str(ledger_dir), "set", "latest"])
        assert (baselines / "default.json").exists()

    def test_check_raw_bench_payload(self, capsys, tmp_path, ledger_dir):
        baselines = tmp_path / "baselines"
        payload = {"bench": "engine_throughput", "app": "ge",
                   "events_per_second": 10000.0, "mean_wall_seconds": 1.0}
        bench = tmp_path / "BENCH_engine.json"
        bench.write_text(json.dumps(payload))
        assert main(["baseline", "--ledger", str(ledger_dir), "set",
                     str(bench), "--baselines", str(baselines)]) == 0
        # A 10x wall-clock slowdown WARNs but must not FAIL the build.
        payload["mean_wall_seconds"] = 10.0
        payload["events_per_second"] = 1000.0
        bench.write_text(json.dumps(payload))
        assert main(["baseline", "--ledger", str(ledger_dir), "check",
                     str(bench), "--baselines", str(baselines)]) == 0
