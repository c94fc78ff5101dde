"""Seed corpus: minimized scenarios persisted as replayable regressions.

Every corpus case is one JSON document (kind ``fuzz-case``) holding a
scenario, the **exact** expected metrics of its deterministic replay
(makespan, baseline makespan, ψ -- compared with ``==``, not a
tolerance: the engine is bit-reproducible and JSON round-trips doubles
through ``repr``), and free-form provenance describing where the case
came from (a shrunk violation, an adversarial-search optimum, a
hand-written regression).  CI replays the whole corpus on every build:
a metric mismatch means determinism broke; a new invariant violation
means an old bug came back.

Cases are named by ``scenario_hash()`` so re-adding an identical
scenario is idempotent.  The default directory is
``tests/fuzz/corpus``; override per-process with
``$REPRO_FUZZ_CORPUS_DIR``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .errors import CorpusError, ScenarioError
from .oracle import CheckConfig, ScenarioReport, check_scenario
from .scenario import Scenario

FUZZ_CASE_KIND = "fuzz-case"
CORPUS_DIR_ENV = "REPRO_FUZZ_CORPUS_DIR"
DEFAULT_CORPUS_DIR = Path("tests") / "fuzz" / "corpus"

#: The metric keys a case pins; replay compares each bit-for-bit.
EXPECTED_KEYS = ("makespan", "baseline_makespan", "psi")

#: Replay re-checks invariants but skips the extra-run probes -- the
#: exact-metric comparison already proves deterministic replay, and
#: corpus CI wants one run per case, not five.
REPLAY_CHECK = CheckConfig(monotonicity_factors=(), bit_identity=False)


def default_corpus_dir() -> Path:
    """The corpus directory: ``$REPRO_FUZZ_CORPUS_DIR`` or the in-tree
    ``tests/fuzz/corpus``."""
    override = os.environ.get(CORPUS_DIR_ENV)
    return Path(override) if override else DEFAULT_CORPUS_DIR


@dataclass
class CorpusCase:
    """One persisted regression scenario plus its pinned expectations."""

    scenario: Scenario
    expected: dict[str, float] | None = None
    provenance: dict[str, Any] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.scenario.scenario_hash()

    def to_payload(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario.to_payload(),
            "expected": self.expected,
            "provenance": self.provenance,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "CorpusCase":
        """Rebuild a case; any malformed field is a CorpusError."""
        if not isinstance(payload, dict):
            raise CorpusError(f"corpus case must be an object, got {payload!r}")
        try:
            scenario = Scenario.from_payload(payload.get("scenario"))
        except ScenarioError as exc:
            raise CorpusError(f"malformed corpus scenario: {exc}") from exc
        expected = payload.get("expected")
        if expected is not None:
            if not isinstance(expected, dict) or any(
                type(v) not in (int, float) for v in expected.values()
            ):
                raise CorpusError(f"expected must map metrics to numbers, "
                                  f"got {expected!r}")
            expected = {k: float(v) for k, v in expected.items()}
        provenance = payload.get("provenance") or {}
        if not isinstance(provenance, dict):
            raise CorpusError(f"provenance must be an object, "
                              f"got {provenance!r}")
        return cls(scenario=scenario, expected=expected,
                   provenance=dict(provenance))


def make_case(
    scenario: Scenario,
    *,
    executor: Any = None,
    provenance: dict[str, Any] | None = None,
) -> CorpusCase:
    """Run ``scenario`` once and pin its exact replay expectations.

    Refuses to pin a scenario that currently violates invariants --
    corpus cases are regressions that *pass*; a violating scenario
    belongs in a violation artifact until the bug is fixed.
    """
    report = check_scenario(scenario, REPLAY_CHECK, executor=executor)
    if not report.ok:
        raise CorpusError(
            f"cannot pin expectations for a violating scenario "
            f"({len(report.violations)} violation(s)): "
            f"{report.violations[0]}"
        )
    expected = {"makespan": report.makespan}
    if report.baseline_makespan is not None:
        expected["baseline_makespan"] = report.baseline_makespan
    if report.psi is not None:
        expected["psi"] = report.psi
    return CorpusCase(
        scenario=scenario,
        expected=expected,
        provenance=dict(provenance or {}),
    )


def save_case(case: CorpusCase, directory: str | Path | None = None) -> Path:
    """Write ``case`` to the corpus; returns its path."""
    from ..experiments.persistence import write_json_document

    directory = Path(directory) if directory else default_corpus_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{case.name}.json"
    write_json_document(
        path, FUZZ_CASE_KIND, case.to_payload(),
        metadata={"scenario_hash": case.name},
    )
    return path


def load_case(path: str | Path) -> CorpusCase:
    """Read one ``fuzz-case`` document back into a :class:`CorpusCase`."""
    from ..experiments.persistence import read_json_document

    return CorpusCase.from_payload(read_json_document(path, FUZZ_CASE_KIND))


def corpus_paths(directory: str | Path | None = None) -> list[Path]:
    """Every case file in the corpus, sorted for deterministic order."""
    directory = Path(directory) if directory else default_corpus_dir()
    if not directory.is_dir():
        return []
    return sorted(directory.glob("*.json"))


@dataclass
class ReplayResult:
    """Outcome of replaying one corpus case."""

    case: CorpusCase
    report: ScenarioReport
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.report.ok and not self.mismatches


def replay_case(
    case: CorpusCase,
    *,
    executor: Any = None,
    config: CheckConfig | None = None,
) -> ReplayResult:
    """Re-run a corpus case: invariants must hold and pinned metrics must
    replay **bit-identically** (exact float equality)."""
    report = check_scenario(
        case.scenario, config or REPLAY_CHECK, executor=executor
    )
    result = ReplayResult(case=case, report=report)
    if case.expected:
        observed = {
            "makespan": report.makespan,
            "baseline_makespan": report.baseline_makespan,
            "psi": report.psi,
        }
        for key in EXPECTED_KEYS:
            if key not in case.expected:
                continue
            want = case.expected[key]
            got = observed.get(key)
            if got is None or got != want:
                result.mismatches.append(
                    f"{key}: expected {want!r}, replayed {got!r}"
                )
    return result


def replay_corpus(
    directory: str | Path | None = None,
    *,
    executor: Any = None,
    config: CheckConfig | None = None,
) -> list[ReplayResult]:
    """Replay every case under ``directory`` (deterministic order)."""
    return [
        replay_case(load_case(path), executor=executor, config=config)
        for path in corpus_paths(directory)
    ]
