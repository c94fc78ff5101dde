"""Tests for the CLI tool commands (predict / memory / profile)."""

import json

import pytest

from repro.cli import main


class TestPredict:
    def test_ge_prediction_output(self, capsys):
        assert main(["predict", "--app", "ge", "--nodes", "2", "4"]) == 0
        out = capsys.readouterr().out
        assert "Automatic prediction (ge)" in out
        assert "Predicted scalability" in out
        assert "2 -> 4 nodes" in out

    def test_custom_target(self, capsys):
        main(["predict", "--app", "mm", "--nodes", "2", "4", "--target", "0.2"])
        out = capsys.readouterr().out
        assert "E_S=0.2" in out

    def test_app_before_the_command_name(self, capsys):
        assert main(["--app", "mm", "predict", "--nodes", "2", "4"]) == 0
        assert "Automatic prediction (mm)" in capsys.readouterr().out

    def test_stencil_app(self, capsys):
        main(["predict", "--app", "stencil", "--nodes", "2", "4"])
        out = capsys.readouterr().out
        assert "Automatic prediction (stencil)" in out


class TestMemory:
    def test_feasible_case(self, capsys):
        main(["memory", "--app", "ge", "--nodes", "2", "--size", "500"])
        out = capsys.readouterr().out
        assert "Distributed memory feasibility" in out
        assert "distributed run fits: True" in out

    def test_infeasible_case_flags_blades(self, capsys):
        main(["memory", "--app", "mm", "--nodes", "8", "--size", "8000"])
        out = capsys.readouterr().out
        assert "distributed run fits: False" in out
        assert "False" in out

    def test_app_without_model_names_the_modelled_apps(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["memory", "--app", "fft", "--nodes", "2", "--size", "100"])
        message = str(excinfo.value.code)
        assert message.startswith("error: InvalidOperationError: ")
        assert "'fft'" in message and "ge, mm, stencil" in message


class TestProfile:
    def test_profile_writes_artifacts(self, capsys, tmp_path):
        out = tmp_path / "prof"
        assert main(
            ["profile", "gaussian", "--nodes", "2", "--size", "60",
             "--out", str(out), "--ledger", str(tmp_path / "ledger")]
        ) == 0
        text = capsys.readouterr().out
        assert "profile: ge" in text
        assert "undelivered messages = 0" in text
        assert "critical path" in text
        for name in ("trace.json", "metrics.json", "summary.txt"):
            assert (out / name).exists(), name
        events = json.loads((out / "trace.json").read_text())
        assert isinstance(events, list)
        assert all(
            key in ev for ev in events
            for key in ("ph", "ts", "dur", "pid", "tid")
        )

    def test_profile_without_out_dir(self, capsys, tmp_path):
        assert main(["profile", "mm", "--nodes", "2", "--size", "40",
                     "--ledger", str(tmp_path / "ledger")]) == 0
        text = capsys.readouterr().out
        assert "profile: mm" in text
        assert "Overhead decomposition" in text

    def test_profile_app_flag_fallback(self, capsys, tmp_path):
        assert main(
            ["profile", "--app", "stencil", "--nodes", "2", "--size", "24",
             "--ledger", str(tmp_path / "ledger")]
        ) == 0
        assert "profile: stencil" in capsys.readouterr().out

    def test_profile_summary_has_rank_table_and_timeline(self, capsys,
                                                          tmp_path):
        assert main(["profile", "ge", "--nodes", "2", "--size", "80",
                     "--ledger", str(tmp_path / "ledger")]) == 0
        out = capsys.readouterr().out
        assert "Per-rank time" in out
        assert "utilization [" in out
        assert "E_S" in out

    def test_profile_lists_every_rank(self, capsys, tmp_path):
        from repro.machine import mm_configuration

        nranks = mm_configuration(4).nranks
        assert main(["profile", "mm", "--nodes", "4", "--size", "60",
                     "--ledger", str(tmp_path / "ledger")]) == 0
        out = capsys.readouterr().out
        table = out.split("Per-rank time")[1].split("utilization [")[0]
        rows = [line.split()[0] for line in table.splitlines()
                if line.split() and line.split()[0].isdigit()]
        assert rows == [str(rank) for rank in range(nranks)]

    def test_profile_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["profile", "quicksort", "--nodes", "2"])


class TestTraceOut:
    def test_table_command_exports_trace(self, capsys, tmp_path):
        path = tmp_path / "study.json"
        assert main(["table2", "--trace-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "trace events" in out
        events = json.loads(path.read_text())
        assert isinstance(events, list) and events
        # Every traced run is a separate trace-viewer process.
        assert {e["ph"] for e in events} >= {"M", "X"}

    def test_profile_with_trace_out(self, capsys, tmp_path):
        """--trace-out exports the profiled run: the same events as the
        profile's own trace.json."""
        path = tmp_path / "pt.json"
        assert main(
            ["profile", "ge", "--nodes", "2", "--size", "40",
             "--trace-out", str(path), "--out", str(tmp_path / "prof"),
             "--ledger", str(tmp_path / "ledger")]
        ) == 0
        events = json.loads(path.read_text())
        assert any(e["ph"] == "X" for e in events)
        own = json.loads((tmp_path / "prof" / "trace.json").read_text())
        assert len(events) == len(own)

    def test_profile_trace_out_reports_one_run(self, capsys, tmp_path):
        path = tmp_path / "pr.json"
        assert main(
            ["profile", "ge", "--nodes", "2", "--size", "60",
             "--trace-out", str(path), "--ledger", str(tmp_path / "ledger")]
        ) == 0
        assert "from 1 simulated run(s)" in capsys.readouterr().out
        events = json.loads(path.read_text())
        assert any(e["ph"] == "X" for e in events)


def test_unknown_tool_rejected():
    with pytest.raises(SystemExit):
        main(["teleport"])
