"""End-to-end fuzz campaigns: clean sweeps and the violation pipeline."""

import json

from repro.fuzz import (
    CheckConfig,
    ScenarioSpace,
    fuzz_campaign,
    load_case,
    violation_kinds,
)

FAST = CheckConfig(monotonicity_factors=(0.5,), bit_identity=False)

SMALL_SPACE = ScenarioSpace(
    apps=("ge", "mm"), max_ranks=5, max_slowdowns=2,
    max_crashes=0, max_link_faults=1,
)


class TestCleanCampaign:
    def test_healthy_engine_yields_no_violations(self, tmp_path):
        result = fuzz_campaign(
            count=6, seed=42, space=SMALL_SPACE, config=FAST,
            corpus_dir=tmp_path / "corpus",
            artifacts_dir=tmp_path / "artifacts",
        )
        assert result.ok
        assert result.scenarios == 6
        assert len(result.reports) == 6
        assert result.corpus_paths == []
        assert result.artifact_paths == []
        assert "OK" in result.summary()

    def test_campaign_is_deterministic(self, tmp_path):
        kwargs = dict(
            count=4, seed=7, space=SMALL_SPACE, config=FAST,
            corpus_dir=tmp_path / "corpus",
            artifacts_dir=tmp_path / "artifacts",
        )
        a = fuzz_campaign(**kwargs)
        b = fuzz_campaign(**kwargs)
        assert [r.scenario.scenario_hash() for r in a.reports] == \
            [r.scenario.scenario_hash() for r in b.reports]
        assert [r.psi for r in a.reports] == [r.psi for r in b.reports]


class TestViolationPipeline:
    def test_planted_bug_flows_to_corpus_and_artifacts(
        self, time_warp, tmp_path
    ):
        result = fuzz_campaign(
            count=3, seed=0, space=SMALL_SPACE, config=FAST,
            corpus_dir=tmp_path / "corpus",
            artifacts_dir=tmp_path / "artifacts",
            max_shrink_evaluations=20,
        )
        assert not result.ok
        assert result.violating
        # Every violation produced a shrunk reproducer + corpus case +
        # artifact document.
        assert len(result.corpus_paths) == len(result.violating)
        assert len(result.shrunk) == len(result.violating)
        assert len(result.artifact_paths) == len(result.violating)
        for report in result.violating:
            assert violation_kinds(report) & {"psi-bounds", "monotonicity"}
        for path in result.corpus_paths:
            case = load_case(path)
            # A violating scenario has no trustworthy pinned metrics.
            assert case.expected is None
            assert case.provenance["origin"] == "fuzz-campaign"
            assert case.provenance["violation_kinds"]
        for path in result.artifact_paths:
            raw = json.loads(path.read_text())
            assert raw["kind"] == "fuzz-violation"
            assert raw["violations"]

    def test_shrunk_reproducers_are_smaller(self, time_warp, tmp_path):
        result = fuzz_campaign(
            count=2, seed=1, space=SMALL_SPACE, config=FAST,
            corpus_dir=tmp_path / "corpus",
            artifacts_dir=tmp_path / "artifacts",
            max_shrink_evaluations=30,
        )
        assert result.shrunk
        for original, shrunk in zip(result.violating, result.shrunk):
            assert shrunk.scenario.n <= original.scenario.n
            assert shrunk.scenario.nranks <= original.scenario.nranks
