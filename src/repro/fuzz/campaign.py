"""The fuzz campaign driver: generate → check → shrink → persist.

``fuzz_campaign`` is what the CI smoke job and the ``repro fuzz run``
CLI call: draw ``count`` scenarios from a seeded generator, run the
invariant oracle on each (optionally sampling the expensive bit-identity
probe every K-th scenario), and for every violation produce the full
regression package -- a minimized reproducer (delta-debugged while the
same violation kind keeps firing), a corpus case in replayable format,
and CI-uploadable artifacts (scenario + violations JSON, flight-recorder
ring dump).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from .corpus import CorpusCase, save_case
from .generator import ScenarioGenerator, ScenarioSpace
from .oracle import CheckConfig, ScenarioReport, check_scenario, dump_violation
from .scenario import Scenario
from .shrink import ShrinkResult, shrink_scenario

#: Shrink-predicate oracle: cheap (no extra-run probes except what the
#: violation needs) -- monotonicity violations still need the probe, so
#: keep one mild factor.
_SHRINK_CHECK = CheckConfig(monotonicity_factors=(0.5,), bit_identity=False)


@dataclass
class CampaignResult:
    """Everything one fuzz campaign produced."""

    scenarios: int
    reports: list[ScenarioReport] = field(default_factory=list)
    violating: list[ScenarioReport] = field(default_factory=list)
    shrunk: list[ShrinkResult] = field(default_factory=list)
    corpus_paths: list[Path] = field(default_factory=list)
    artifact_paths: list[Path] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violating

    def summary(self) -> str:
        status = "OK" if self.ok else "VIOLATIONS"
        return (
            f"fuzz campaign: {self.scenarios} scenario(s), "
            f"{len(self.violating)} violating -- {status}"
        )


def violation_kinds(report: ScenarioReport) -> frozenset[str]:
    """The distinct invariant families a report violated (shrink key)."""
    return frozenset(v.kind for v in report.violations)


def fuzz_campaign(
    *,
    count: int = 20,
    seed: int = 0,
    space: ScenarioSpace | None = None,
    config: CheckConfig | None = None,
    executor: Any = None,
    shrink: bool = True,
    max_shrink_evaluations: int = 80,
    bit_identity_every: int = 0,
    corpus_dir: str | Path | None = None,
    artifacts_dir: str | Path = ".repro/fuzz",
) -> CampaignResult:
    """Run a seeded fuzz campaign; deterministic for fixed arguments.

    ``bit_identity_every=K`` turns on the serial==pool==cached probe for
    every K-th scenario (0 disables; the probe costs a process-pool
    spawn per sampled scenario).  On violation: the scenario is shrunk
    (if ``shrink``), written to ``corpus_dir`` in corpus-case format
    (``expected=None`` -- a violating scenario has no trustworthy pinned
    metrics until the bug is fixed), and dumped with flight artifacts
    to ``artifacts_dir``.
    """
    generator = ScenarioGenerator(space=space, seed=seed)
    base_config = config if config is not None else CheckConfig()
    result = CampaignResult(scenarios=count)

    for index in range(count):
        scenario = generator.scenario(index)
        cfg = base_config
        if bit_identity_every and index % bit_identity_every == 0:
            cfg = replace(base_config, bit_identity=True)
        report = check_scenario(scenario, cfg, executor=executor)
        result.reports.append(report)
        if report.ok:
            continue
        result.violating.append(report)
        minimized = scenario
        if shrink:
            kinds = violation_kinds(report)

            def still_fails(candidate: Scenario) -> bool:
                probe = check_scenario(
                    candidate, _SHRINK_CHECK, executor=executor
                )
                return bool(kinds & violation_kinds(probe))

            shrunk = shrink_scenario(
                scenario, still_fails,
                max_evaluations=max_shrink_evaluations,
            )
            result.shrunk.append(shrunk)
            minimized = shrunk.scenario
            report = check_scenario(
                minimized, _SHRINK_CHECK, executor=executor
            )
        case = CorpusCase(
            scenario=minimized,
            expected=None,
            provenance={
                "origin": "fuzz-campaign",
                "seed": seed,
                "index": index,
                "original_hash": scenario.scenario_hash(),
                "violation_kinds": sorted(violation_kinds(report)),
            },
        )
        result.corpus_paths.append(save_case(case, corpus_dir))
        result.artifact_paths.append(
            dump_violation(report, directory=artifacts_dir)
        )
    return result
