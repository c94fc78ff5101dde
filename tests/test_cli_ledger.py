"""Tests for the run-ledger CLI: recording runs and `repro history`.

Covers the path end to end: `repro profile` (and any table command given
`--ledger`) records a ledger run, and `repro history` lists it.
"""

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

    def test_unwritable_ledger_warns_on_stderr(self, capsys, tmp_path):
        root = tmp_path / "not-a-dir"
        root.write_text("")
        assert main([
            "profile", "gaussian", "--nodes", "2", "--size", "40",
            "--out", str(tmp_path / "prof"), "--ledger", str(root),
        ]) == 0
        captured = capsys.readouterr()
        assert "warning:" not in captured.out
        assert "ledger:" not in captured.out
        (err,) = captured.err.splitlines()
        assert err.startswith(f"warning: ledger.write_failed ledger={root} ")

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

    def test_app_filter_takes_aliases_before_or_after(self, capsys, tmp_path,
                                                      ledger_dir):
        run_id = profile_run(ledger_dir, tmp_path)
        capsys.readouterr()
        for argv in (["history", "--app", "gaussian"],
                     ["--app", "gaussian", "history"]):
            assert main(argv + ["--ledger", str(ledger_dir)]) == 0
            assert run_id in capsys.readouterr().out

    def test_limit_below_one_is_rejected(self, capsys, ledger_dir):
        for limit in ("0", "-1"):
            with pytest.raises(SystemExit) as exit_info:
                main(["history", "--ledger", str(ledger_dir),
                      "--limit", limit])
            assert exit_info.value.code == 2
            assert "--limit" in capsys.readouterr().err


class TestHistorySources:
    def test_attack_source_filters(self, capsys, ledger_dir, ge2_cluster):
        from repro.experiments.runner import run_app

        ledger = RunLedger(ledger_dir)
        record = run_app("ge", ge2_cluster, 60)
        attack_id = ledger.record_run("ge", ge2_cluster, record,
                                      source="attack")
        run_id = ledger.record_run("ge", ge2_cluster, record)
        assert main(["history", "--ledger", str(ledger_dir),
                     "--source", "attack"]) == 0
        out = capsys.readouterr().out
        assert attack_id in out and run_id not in out
        for alias in ("run", "engine"):
            assert main(["history", "--ledger", str(ledger_dir),
                         "--source", alias]) == 0
            out = capsys.readouterr().out
            assert run_id in out and attack_id not in out

    def test_every_written_source_is_a_choice(self, capsys, ledger_dir):
        """Each ``source=`` literal a ledger writer uses is in
        ``LEDGER_SOURCES``, and ``repro history`` accepts all of them."""
        import re
        from pathlib import Path

        import repro
        from repro.obs.ledger import LEDGER_SOURCES

        literal = re.compile(r"""["']?source["']?\s*[=:]\s*["'](\w+)["']""")
        written = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            written.update(literal.findall(path.read_text()))
        assert {"run", "attack"} <= written
        assert written <= set(LEDGER_SOURCES)
        for source in LEDGER_SOURCES:
            assert main(["history", "--ledger", str(ledger_dir),
                         "--source", source]) == 0
