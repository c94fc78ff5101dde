"""Tests for the sweep-telemetry CLI surface.

`repro sweep profile` runs a cold telemetered sweep and prints the
overhead-attribution phase table; `repro history --source sweep|engine`
filters the new sweep-level ledger records; `repro faults sweep
--profile` rides the telemetry on the existing fault sweep.
"""

import json
from pathlib import Path

import pytest

from repro import cli
from repro.cli import main
from repro.obs.ledger import RunLedger
from repro.obs.telemetry import PHASES

PROFILE_ARGS = [
    "sweep", "profile", "--app", "ge", "--nodes", "2",
    "--sizes", "60", "90", "120", "--jobs", "2",
]


# ``cold_pool`` makes every profiled sweep start without a live shared
# pool, so the spawn phase is observed even when earlier tests already
# warmed it in this process; --warm-pool covers the reuse path.
@pytest.mark.usefixtures("cold_pool")
class TestSweepProfile:
    def test_prints_phase_table_and_speedup(self, capsys):
        assert main(PROFILE_ARGS) == 0
        out = capsys.readouterr().out
        assert "Sweep overhead attribution" in out
        for phase in PHASES:
            assert phase in out
        assert "coverage" in out
        assert "worker utilization" in out
        assert "serial" in out and "x" in out

    def test_no_serial_skips_comparison(self, capsys):
        assert main(PROFILE_ARGS + ["--no-serial"]) == 0
        out = capsys.readouterr().out
        assert "Sweep overhead attribution" in out
        assert "vs parallel" not in out

    def test_out_json_has_phases_and_coverage(self, capsys, tmp_path):
        out_path = tmp_path / "profile.json"
        assert main(PROFILE_ARGS + ["--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        telemetry = payload["telemetry"]
        for phase in PHASES:
            assert telemetry["phases"][phase] > 0.0
        assert telemetry["coverage"] >= 0.95
        assert payload["parallel_seconds"] == pytest.approx(
            telemetry["wall_seconds"]
        )
        assert payload["speedup"] == pytest.approx(
            payload["serial_seconds"] / payload["parallel_seconds"]
        )

    def test_warm_pool_profile_pays_no_spawn(self, capsys, tmp_path):
        """--warm-pool pre-spawns the shared pool outside the profiled
        window: the report shows reuse and a spawn-free phase table."""
        out_path = tmp_path / "warm.json"
        args = [
            "sweep", "profile", "--app", "ge", "--nodes", "2",
            "--sizes", "60", "90", "120", "--jobs", "2",
            "--warm-pool", "--no-serial", "--out", str(out_path),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "reused warm" in out
        payload = json.loads(out_path.read_text())
        telemetry = payload["telemetry"]
        assert telemetry["pool"]["reuse"] is True
        assert telemetry["pool"]["spawns"] == 0
        assert telemetry["phases"]["spawn"] == 0.0
        assert telemetry["coverage"] >= 0.95

    def test_trace_out_has_labeled_worker_tracks(self, capsys, tmp_path):
        trace_path = tmp_path / "timeline.json"
        assert main(
            PROFILE_ARGS + ["--no-serial", "--trace-out", str(trace_path)]
        ) == 0
        events = json.loads(trace_path.read_text())
        names = sorted(
            e["args"]["name"] for e in events if e["name"] == "process_name"
        )
        assert names[0] == "parent"
        assert len(names) == 3  # parent + 2 workers
        assert all(n.startswith("worker-") for n in names[1:])

    def test_ledger_gains_sweep_record(self, capsys, tmp_path):
        ledger_dir = tmp_path / "ledger"
        assert main(
            PROFILE_ARGS + ["--no-serial", "--ledger", str(ledger_dir)]
        ) == 0
        sources = sorted(e.source for e in RunLedger(ledger_dir).entries())
        assert sources == ["run", "run", "run", "sweep"]

    def test_rejects_bad_jobs(self):
        with pytest.raises(SystemExit, match="--jobs"):
            main(["sweep", "profile", "--jobs", "0"])


class TestHistorySources:
    def _seed(self, ledger_dir):
        main(PROFILE_ARGS + ["--no-serial", "--ledger", str(ledger_dir)])

    def test_source_sweep_filters(self, capsys, tmp_path):
        ledger_dir = tmp_path / "ledger"
        self._seed(ledger_dir)
        capsys.readouterr()
        assert main(["history", "--ledger", str(ledger_dir),
                     "--source", "sweep"]) == 0
        out = capsys.readouterr().out
        assert "sweep" in out
        assert "-n60-" not in out  # per-point runs excluded

    def test_source_engine_aliases_run(self, capsys, tmp_path):
        ledger_dir = tmp_path / "ledger"
        self._seed(ledger_dir)
        capsys.readouterr()
        assert main(["history", "--ledger", str(ledger_dir),
                     "--source", "engine"]) == 0
        out = capsys.readouterr().out
        assert "-n60-" in out
        assert "sweep-ge" not in out

    def test_limit_caps_rows(self, capsys, tmp_path):
        ledger_dir = tmp_path / "ledger"
        self._seed(ledger_dir)
        capsys.readouterr()
        assert main(["history", "--ledger", str(ledger_dir),
                     "--source", "engine", "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("-ge-n") == 1


class TestFaultsSweepProfile:
    def test_profile_flag_prints_report_and_out_block(self, capsys,
                                                      tmp_path):
        out_path = tmp_path / "sweep.json"
        code = main([
            "faults", "sweep", "--nodes", "2", "--size", "120",
            "--severities", "0", "0.3", "--jobs", "2",
            "--no-cache", "--profile", "--out", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Sweep overhead attribution" in out
        telemetry = json.loads(out_path.read_text())["telemetry"]
        assert telemetry["phases"]["engine_run"] > 0.0
        assert telemetry["points"] == 3  # baseline + 2 severities

    def test_without_profile_no_telemetry(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        code = main([
            "faults", "sweep", "--nodes", "2", "--size", "120",
            "--severities", "0", "0.3", "--jobs", "2",
            "--no-cache", "--out", str(out_path),
        ])
        assert code == 0
        assert "telemetry" not in json.loads(out_path.read_text())
        assert "overhead attribution" not in capsys.readouterr().out


#: One invocation per command that takes the shared executor options.
EXECUTOR_COMMANDS = {
    "table3": ["table3", "--nodes", "2"],
    "faults sweep": ["faults", "sweep", "--nodes", "2"],
    "faults attack": ["faults", "attack"],
    "fuzz run": ["fuzz", "run", "--count", "1"],
    "fuzz replay": ["fuzz", "replay", "--corpus",
                    str(Path(__file__).parent / "fuzz" / "corpus")],
    "sweep profile": ["sweep", "profile", "--no-serial"],
}


class _Built(Exception):
    """Raised by the spy once a command has built its executor."""


class TestSharedExecutorOptions:
    @pytest.mark.parametrize("command", sorted(EXECUTOR_COMMANDS))
    def test_jobs_and_no_cache_build_one_config(self, command, monkeypatch):
        built = []
        real = cli._build_executor

        def spy(args, *rest, **kwargs):
            built.append(real(args, *rest, **kwargs))
            raise _Built

        monkeypatch.setattr(cli, "_build_executor", spy)
        with pytest.raises(_Built):
            main(EXECUTOR_COMMANDS[command] + ["--jobs", "2", "--no-cache"])
        (executor,) = built
        assert (executor.jobs, executor.cache, executor.progress) == (
            2, None, None
        )

    @pytest.mark.parametrize("command", sorted(EXECUTOR_COMMANDS))
    def test_no_keep_pool_is_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main(EXECUTOR_COMMANDS[command] + ["--no-keep-pool"])
        assert exc.value.code == 2
        assert "--no-keep-pool" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--jobs", "2", "--no-cache", "table1"],
        ["--jobs", "2", "--no-cache", "faults", "sweep"],
        ["--jobs", "2", "--no-cache", "sweep", "profile", "--no-serial"],
    ], ids=" ".join)
    def test_options_before_the_command_name(self, argv, monkeypatch):
        built = []
        real = cli._build_executor

        def spy(args, *rest, **kwargs):
            built.append(real(args, *rest, **kwargs))
            raise _Built

        monkeypatch.setattr(cli, "_build_executor", spy)
        with pytest.raises(_Built):
            main(argv)
        (executor,) = built
        assert (executor.jobs, executor.cache) == (2, None)

    def test_sweep_profile_default_yields_to_given_jobs(self, monkeypatch):
        built = []

        def spy(args, *rest, **kwargs):
            built.append(args.jobs)
            raise _Built

        monkeypatch.setattr(cli, "_build_executor", spy)
        for argv in (["--jobs", "3", "sweep", "profile"],
                     ["sweep", "profile", "--jobs", "1"]):
            with pytest.raises(_Built):
                main(argv + ["--no-serial"])
        assert built == [3, 1]

    def test_sweep_profile_defaults_to_two_jobs(self, monkeypatch):
        built = []

        def spy(args, *rest, **kwargs):
            built.append(args.jobs)
            raise _Built

        monkeypatch.setattr(cli, "_build_executor", spy)
        with pytest.raises(_Built):
            main(["sweep", "profile", "--no-serial"])
        with pytest.raises(_Built):
            main(["faults", "sweep"])
        assert built == [2, 1]
