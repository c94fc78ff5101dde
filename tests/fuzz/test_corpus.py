"""Corpus cases: pin exact metrics, replay bit-identically, catch drift."""

import json

import pytest

from repro.faults.schedule import FaultSchedule, NodeSlowdown
from repro.fuzz import (
    CORPUS_DIR_ENV,
    CorpusCase,
    CorpusError,
    corpus_paths,
    default_corpus_dir,
    load_case,
    make_case,
    replay_case,
    replay_corpus,
    save_case,
)


@pytest.fixture
def faulted_scenario(clean_scenario):
    return clean_scenario.with_schedule(FaultSchedule((
        NodeSlowdown(rank=0, onset=0.0, duration=None, severity=0.4),
    )))


class TestMakeCase:
    def test_pins_exact_metrics(self, faulted_scenario):
        case = make_case(faulted_scenario, provenance={"origin": "test"})
        assert set(case.expected) == {
            "makespan", "baseline_makespan", "psi"
        }
        assert case.provenance == {"origin": "test"}
        assert case.name == faulted_scenario.scenario_hash()

    def test_refuses_violating_scenario(self, faulted_scenario, time_warp):
        with pytest.raises(CorpusError):
            make_case(faulted_scenario)


class TestSaveLoadReplay:
    def test_round_trip_and_exact_replay(self, faulted_scenario, tmp_path):
        case = make_case(faulted_scenario)
        path = save_case(case, tmp_path / "corpus")
        assert path.name == f"{case.name}.json"
        loaded = load_case(path)
        assert loaded.scenario == case.scenario
        # Expectations survive JSON with full float fidelity ...
        assert loaded.expected == case.expected
        # ... so the exact-equality replay passes.
        replay = replay_case(loaded)
        assert replay.ok
        assert replay.mismatches == []

    def test_saving_is_idempotent_by_content_hash(self, faulted_scenario,
                                                  tmp_path):
        case = make_case(faulted_scenario)
        first = save_case(case, tmp_path / "corpus")
        second = save_case(case, tmp_path / "corpus")
        assert first == second
        assert corpus_paths(tmp_path / "corpus") == [first]

    def test_tampered_expectation_is_a_mismatch(self, faulted_scenario,
                                                tmp_path):
        case = make_case(faulted_scenario)
        case.expected["psi"] = case.expected["psi"] * 0.99
        replay = replay_case(case)
        assert not replay.ok
        assert any("psi" in m for m in replay.mismatches)

    def test_malformed_case_file_raises_corpus_error(self, tmp_path):
        from repro.experiments.persistence import write_json_document

        scenario = {"app": "ge", "n": 16,
                    "cluster": {"groups": [["blade", 2]]},
                    "schedule": {"events": []}}
        bad_cases = [
            {"scenario": {**scenario, "app": "nope"}},
            {"scenario": {**scenario, "n": "abc"}},
            {"scenario": scenario, "expected": {"makespan": "abc"}},
            {"scenario": scenario, "expected": [1.0]},
            {"scenario": scenario, "provenance": "hand-written"},
            {"scenario": scenario, "provenance": [1]},
            {"expected": {"makespan": 1.0}},
        ]
        for i, payload in enumerate(bad_cases):
            path = tmp_path / f"bad{i}.json"
            write_json_document(path, "fuzz-case", payload)
            with pytest.raises(CorpusError):
                load_case(path)

    def test_replay_corpus_walks_directory(self, faulted_scenario,
                                           clean_scenario, tmp_path):
        directory = tmp_path / "corpus"
        save_case(make_case(faulted_scenario), directory)
        save_case(make_case(clean_scenario), directory)
        results = replay_corpus(directory)
        assert len(results) == 2
        assert all(r.ok for r in results)

    def test_corpus_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CORPUS_DIR_ENV, str(tmp_path / "elsewhere"))
        assert default_corpus_dir() == tmp_path / "elsewhere"
        assert corpus_paths() == []  # missing directory is empty, not error


class TestCommittedSeedCorpus:
    """The corpus shipped in-tree must always replay bit-identically."""

    def test_committed_cases_replay(self):
        paths = corpus_paths("tests/fuzz/corpus")
        assert paths, "the repo ships at least one seed corpus case"
        for path in paths:
            case = load_case(path)
            replay = replay_case(case)
            assert replay.ok, (
                f"{path.name}: mismatches={replay.mismatches} "
                f"violations={[str(v) for v in replay.report.violations]}"
            )

    def test_committed_cases_carry_provenance(self):
        for path in corpus_paths("tests/fuzz/corpus"):
            case = load_case(path)
            assert case.provenance.get("origin")
            assert case.expected, "seed cases pin exact replay metrics"
            raw = json.loads(path.read_text())
            assert raw["metadata"]["scenario_hash"] == case.name
