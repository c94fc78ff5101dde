"""CLI tests: `repro faults attack` and `repro fuzz run|replay`."""

import json

import pytest

from repro.cli import main
from repro.obs.ledger import RunLedger


@pytest.fixture
def tiny_cluster():
    from repro.fuzz import ClusterModel

    return ClusterModel(groups=(("blade", 2), ("v210", 1)), network="bus")


class _TimeWarp:
    """Hostile network model: messages arrive the instant they are sent."""

    def __init__(self, inner):
        self._inner = inner

    def transfer(self, src, dst, nbytes, start):
        sender_done, _arrival = self._inner.transfer(src, dst, nbytes, start)
        return sender_done, start


class TestFaultsAttack:
    def test_smoke_curve_ledger_and_replayable_corpus(self, capsys,
                                                      tmp_path,
                                                      monkeypatch):
        # The ISSUE acceptance path: --smoke produces a worst-case
        # resilience curve recorded in the ledger, saves the worst
        # scenario as a corpus case, and immediately replays it
        # bit-identically.
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
        monkeypatch.chdir(tmp_path)
        code = main(["faults", "attack", "--smoke"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Worst-case resilience curve" in out
        assert "worst case: psi=" in out
        assert "replay is bit-identical" in out
        entries = RunLedger(tmp_path / "ledger").history(source="attack")
        assert len(entries) == 2  # one run per smoke budget
        record = RunLedger(tmp_path / "ledger").load(entries[0].run_id)
        assert "attack_budget" in record["metrics"]
        assert "attack_score" in record["metrics"]
        assert record["fault"]["schedule"]["events"]
        corpus = list((tmp_path / ".repro" / "fuzz" / "corpus").glob("*.json"))
        assert len(corpus) == 1

    def test_curve_json_out(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out_path = tmp_path / "curve.json"
        code = main([
            "faults", "attack", "--app", "mm", "--size", "48",
            "--cluster", "blade:2", "--budgets", "0.3",
            "--iterations", "2", "--out", str(out_path),
        ])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["app"] == "mm"
        assert payload["cluster"]["groups"] == [["blade", 2]]
        assert len(payload["curve"]) == 1
        assert 0 < payload["curve"][0]["psi"] <= 1.0

    def test_bad_cluster_spec_rejected(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit):
            main(["faults", "attack", "--cluster", "blade:lots"])
        with pytest.raises(SystemExit):
            main(["faults", "attack", "--cluster", "cray:2"])

    def test_malformed_cluster_group_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["faults", "attack", "--cluster", "blade:lots"])
        assert exc.value.code == 2
        assert "bad cluster group 'blade:lots'" in capsys.readouterr().err


class TestFuzzRun:
    def test_clean_campaign_exits_zero(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["fuzz", "run", "--count", "3", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fuzz campaign: 3 scenario(s), 0 violating -- OK" in out

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_empty_campaign_is_a_usage_error(self, count, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "run", "--count", count])
        assert exc.value.code == 2
        assert f"must be >= 1, got {count}" in capsys.readouterr().err

    def test_violations_exit_nonzero_with_artifacts(self, capsys, tmp_path,
                                                    monkeypatch):
        import repro.faults.run as fault_run

        honest = fault_run.faulty_mpi_run

        def warped(nranks, network, *args, **kwargs):
            return honest(nranks, _TimeWarp(network), *args, **kwargs)

        monkeypatch.chdir(tmp_path)
        # Plant the bug in every faulted run of this (serial) campaign.
        monkeypatch.setattr(fault_run, "faulty_mpi_run", warped)
        code = main([
            "fuzz", "run", "--count", "2", "--seed", "0",
            "--corpus", str(tmp_path / "corpus"),
            "--artifacts", str(tmp_path / "artifacts"),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "VIOLATIONS" in out
        assert "corpus case:" in out
        assert list((tmp_path / "corpus").glob("*.json"))
        assert list((tmp_path / "artifacts").glob("violation-*.json"))


class TestFuzzReplay:
    def test_empty_corpus_is_ok(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["fuzz", "replay", "--corpus", str(tmp_path / "none")])
        assert code == 0
        assert "no corpus cases" in capsys.readouterr().out

    def test_replays_saved_case(self, capsys, tmp_path, monkeypatch,
                                tiny_cluster):
        from repro.faults.schedule import FaultSchedule, NodeSlowdown
        from repro.fuzz import Scenario, make_case, save_case

        monkeypatch.chdir(tmp_path)
        scenario = Scenario(
            app="ge", n=64, cluster=tiny_cluster,
            schedule=FaultSchedule((
                NodeSlowdown(rank=0, onset=0.0, duration=None,
                             severity=0.4),
            )),
        )
        save_case(make_case(scenario), tmp_path / "corpus")
        code = main(["fuzz", "replay", "--corpus", str(tmp_path / "corpus")])
        assert code == 0
        out = capsys.readouterr().out
        assert "replayed 1 case(s), 0 failing" in out

    def test_drifted_expectation_fails_replay(self, capsys, tmp_path,
                                              monkeypatch, tiny_cluster):
        from repro.fuzz import Scenario, make_case, save_case

        monkeypatch.chdir(tmp_path)
        case = make_case(Scenario(app="ge", n=64, cluster=tiny_cluster))
        case.expected["makespan"] *= 1.01  # simulate engine drift
        save_case(case, tmp_path / "corpus")
        code = main(["fuzz", "replay", "--corpus", str(tmp_path / "corpus")])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "mismatch: makespan" in out

    def test_malformed_case_fails_and_replay_goes_on(self, capsys, tmp_path,
                                                     monkeypatch,
                                                     tiny_cluster):
        from repro.experiments.persistence import write_json_document
        from repro.fuzz import Scenario, make_case, save_case

        monkeypatch.chdir(tmp_path)
        scenario = Scenario(app="ge", n=64, cluster=tiny_cluster)
        good = save_case(make_case(scenario), tmp_path / "corpus")
        write_json_document(tmp_path / "corpus" / "bad.json", "fuzz-case", {
            "scenario": scenario.to_payload(),
            "expected": {"makespan": "abc"},
        })
        code = main(["fuzz", "replay", "--corpus", str(tmp_path / "corpus")])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL bad.json:" in out
        assert f"ok   {good.stem}:" in out
        assert "replayed 2 case(s), 1 failing" in out
