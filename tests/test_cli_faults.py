"""CLI tests: `repro faults run|sweep` and the version commands."""

import json

import pytest

from repro import __version__
from repro.cli import main
from repro.obs.ledger import RunLedger


class TestVersion:
    @pytest.mark.parametrize("argv", [["version"], ["--version"], ["-V"]])
    def test_prints_package_version(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_matches_document_stamp(self, tmp_path):
        from repro.experiments.persistence import write_json_document

        path = tmp_path / "doc.json"
        write_json_document(path, "test-doc", {})
        stamped = json.loads(path.read_text())["metadata"]["repro_version"]
        assert stamped == __version__


class TestFaultsRun:
    def test_smoke_records_crash_restart_ledger_entry(self, capsys, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
        code = main(["faults", "run", "--smoke", "--nodes", "2",
                     "--size", "120"])
        assert code == 0
        out = capsys.readouterr().out
        assert "degraded psi" in out
        assert "crash" in out and "restart" in out
        entries = RunLedger(tmp_path / "ledger").history(source="faults")
        assert len(entries) == 1
        record = RunLedger(tmp_path / "ledger").load(entries[0].run_id)
        assert record["fault"]["profile_hash"]
        (event,) = record["fault"]["schedule"]["events"]
        assert event["type"] == "crash"
        assert event["restart_delay"] > 0

    def test_uniform_slowdown_flag(self, capsys):
        code = main(["faults", "run", "--app", "ge", "--nodes", "2",
                     "--size", "120", "--slowdown", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        # One slowdown per rank (the 2-node GE ensemble runs 3 ranks).
        assert "3 fault event(s)" in out
        assert "degraded psi" in out

    def test_schedule_file(self, capsys, tmp_path):
        from repro.faults import FaultSchedule, NodeSlowdown

        sched = FaultSchedule((
            NodeSlowdown(rank=0, onset=0.0, duration=None, severity=0.4),
        ))
        path = tmp_path / "sched.json"
        sched.save(path)
        code = main(["faults", "run", "--app", "ge", "--size", "120",
                     "--schedule", str(path)])
        assert code == 0
        assert sched.profile_hash() in capsys.readouterr().out

    def test_trace_out_includes_fault_track(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        main(["faults", "run", "--size", "120", "--slowdown", "0.3",
              "--trace-out", str(trace)])
        events = json.loads(trace.read_text())
        assert any(e.get("cat") == "fault" for e in events)

    @pytest.mark.parametrize("event", [1, {"type": ["slowdown"]}])
    def test_malformed_schedule_file_rejected(self, tmp_path, event):
        from repro.experiments.persistence import write_json_document

        path = tmp_path / "bad.json"
        write_json_document(path, "fault-schedule", {"events": [event]})
        with pytest.raises(SystemExit) as exc:
            main(["faults", "run", "--size", "120", "--schedule", str(path)])
        assert str(exc.value).startswith("error: ")

    def test_missing_fault_source_rejected(self):
        with pytest.raises(SystemExit):
            main(["faults", "run", "--size", "120"])

    def test_bad_slowdown_rejected(self):
        with pytest.raises(SystemExit):
            main(["faults", "run", "--size", "120", "--slowdown", "1.5"])

    @pytest.mark.parametrize("argv", [
        ["faults", "run", "--slowdown", "1.5"],
        ["faults", "run", "--slowdown", "-0.1"],
        ["faults", "sweep", "--severities", "0", "2.0"],
    ], ids=" ".join)
    def test_out_of_range_severity_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be in [0, 1)" in capsys.readouterr().err

    def test_no_baseline_skips_psi(self, capsys):
        code = main(["faults", "run", "--size", "120", "--slowdown", "0.3",
                     "--no-baseline"])
        assert code == 0
        out = capsys.readouterr().out
        assert "degraded psi" not in out
        assert "makespan T'" in out


class TestFaultsSweep:
    def test_table_and_monotone_verdict(self, capsys):
        code = main(["faults", "sweep", "--app", "ge", "--nodes", "2",
                     "--size", "120", "--severities", "0", "0.3", "0.6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "psi monotone non-increasing with severity: True" in out
        assert "0.30" in out

    def test_out_json(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        main(["faults", "sweep", "--size", "120",
              "--severities", "0", "0.5", "--out", str(out_path)])
        data = json.loads(out_path.read_text())
        assert data["psi_monotone_nonincreasing"] is True
        assert [r["severity"] for r in data["rows"]] == [0.0, 0.5]
        assert data["rows"][1]["psi"] < 1.0

    def test_bad_severity_rejected(self):
        with pytest.raises(SystemExit):
            main(["faults", "sweep", "--severities", "0", "2.0"])


class TestFaultsSweepCache:
    ARGS = ["faults", "sweep", "--size", "120", "--severities", "0", "0.3"]

    def test_warm_rerun_replays_from_cache(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(self.ARGS + ["--jobs", "2", "--out", str(out1)]) == 0
        cold_text = capsys.readouterr().out
        assert "run cache: 0 hit(s), 3 miss(es)" in cold_text
        assert main(self.ARGS + ["--jobs", "2", "--out", str(out2)]) == 0
        warm_text = capsys.readouterr().out
        assert "run cache: 3 hit(s), 0 miss(es)" in warm_text
        cold = json.loads(out1.read_text())
        warm = json.loads(out2.read_text())
        assert cold["cache"] == {"hits": 0, "misses": 3}
        assert warm["cache"] == {"hits": 3, "misses": 0}
        assert cold["rows"] == warm["rows"]  # replay is bit-identical
        assert warm["psi_monotone_nonincreasing"] is True

    def test_no_cache_disables_reads_and_writes(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        for _ in range(2):  # the second run must not find anything cached
            assert main(self.ARGS + ["--no-cache", "--out", str(out)]) == 0
            text = capsys.readouterr().out
            assert "run cache:" not in text
            data = json.loads(out.read_text())
            assert data["cache"] == {"hits": 0, "misses": 0}

    def test_bad_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--jobs", "0"])

    def test_ledger_records_every_point_with_cache_hit_metric(
        self, tmp_path, monkeypatch
    ):
        for jobs in ("1", "2"):  # serial and pool-executed cold sweeps
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / f"cache-j{jobs}"))
            ledger_dir = tmp_path / f"ledger-j{jobs}"
            argv = self.ARGS + ["--jobs", jobs, "--ledger", str(ledger_dir)]
            assert main(argv) == 0
            assert main(argv) == 0
            ledger = RunLedger(ledger_dir)
            entries = list(ledger.entries())
            # (baseline + 2 severities) x 2 sweeps, no double recording.
            assert len(entries) == 6, jobs
            metrics = [ledger.load(e.run_id)["metrics"] for e in entries]
            hits = [m.pop("cache_hit") for m in metrics]
            assert hits == [0.0] * 3 + [1.0] * 3, jobs
            # The cache replay reproduces every ledger metric except the
            # wall clock.
            for cold, warm in zip(metrics[:3], metrics[3:]):
                cold.pop("wall_seconds")
                warm.pop("wall_seconds")
                assert cold == warm, jobs


class TestFlightFlag:
    def fail_stop_schedule(self, tmp_path):
        """A crash with no restart: the rank never returns, partners
        block forever, and the run dies with a DeadlockError."""
        from repro.faults import FaultSchedule, NodeCrash

        path = tmp_path / "failstop.json"
        FaultSchedule((
            NodeCrash(rank=1, at=0.0, restart_delay=None),
        )).save(path)
        return path

    def test_fail_stop_leaves_loadable_dump(self, capsys, tmp_path):
        from repro.sim.flight import list_dumps, load_dump

        sched = self.fail_stop_schedule(tmp_path)
        code = main(["faults", "run", "--app", "ge", "--size", "120",
                     "--schedule", str(sched), "--flight", "--no-baseline"])
        assert code == 1
        err = capsys.readouterr().err
        assert "DeadlockError" in err
        assert "flight dump:" in err
        # conftest points REPRO_FLIGHT_DIR at tmp_path / "flight".
        (dump,) = list_dumps(tmp_path / "flight")
        doc = load_dump(dump)
        assert doc["reason"]["trigger"] == "error"
        assert doc["reason"]["error_type"] == "DeadlockError"
        assert doc["retained"] > 0, "ring was empty at dump time"
        assert str(dump) in err
        # ... and `flight show` renders it as the tail of a trace.
        assert main(["flight", "show", "--tail", "8", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "error: DeadlockError" in out
        assert f"source: {dump}" in out

    def test_flight_and_trace_out_together(self, capsys, tmp_path):
        """Both record stores on one faulted run: each writes its file,
        and neither changes what the other records."""
        import json

        from repro.sim.flight import list_dumps, load_dump

        sched = self.fail_stop_schedule(tmp_path)
        args = ["faults", "run", "--app", "ge", "--size", "120",
                "--schedule", str(sched), "--no-baseline"]
        both = tmp_path / "both.json"
        assert main(args + ["--flight", "--trace-out", str(both)]) == 1
        (dump,) = list_dumps(tmp_path / "flight")
        alone = tmp_path / "alone.json"
        assert main(args + ["--trace-out", str(alone)]) == 1
        assert list_dumps(tmp_path / "flight") == [dump]
        capsys.readouterr()

        trace = json.loads(both.read_text())
        assert trace == json.loads(alone.read_text())
        # The dump's records are the last `retained` records of the
        # trace, through the same Chrome encoder.
        doc = load_dump(dump)
        retained = doc["retained"]
        assert 0 < retained < len(trace)
        records = [e for e in trace if e["ph"] != "M"]
        ring = [e for e in doc["traceEvents"]
                if e["ph"] != "M" and e["name"] != "flight_dump"]
        assert ring == records[-retained:]

    def test_fail_stop_without_flight_leaves_no_dump(self, capsys, tmp_path):
        from repro.sim.flight import list_dumps

        sched = self.fail_stop_schedule(tmp_path)
        code = main(["faults", "run", "--app", "ge", "--size", "120",
                     "--schedule", str(sched), "--no-baseline"])
        assert code == 1
        assert "flight dump" not in capsys.readouterr().err
        assert list_dumps(tmp_path / "flight") == []

    def test_healthy_run_with_flight_stays_quiet(self, capsys, tmp_path):
        from repro.sim.flight import list_dumps

        code = main(["faults", "run", "--size", "120", "--slowdown", "0.3",
                     "--flight", "--no-baseline"])
        assert code == 0
        assert "flight dump" not in capsys.readouterr().err
        assert list_dumps(tmp_path / "flight") == []


class TestProgressFlag:
    def test_sweep_progress_heartbeat_on_stderr(self, capsys):
        code = main(["faults", "sweep", "--size", "120", "--no-cache",
                     "--severities", "0", "0.3", "--progress"])
        assert code == 0
        err = capsys.readouterr().err
        # begin() and finish() both emit, so at least two heartbeats.
        assert err.count("[sweep]") >= 2
        assert "3/3 points (100%)" in err  # baseline + 2 severities
        assert "elapsed" in err

    def test_sweep_without_progress_is_silent(self, capsys):
        code = main(["faults", "sweep", "--size", "120", "--no-cache",
                     "--severities", "0", "0.3"])
        assert code == 0
        assert "[sweep]" not in capsys.readouterr().err
