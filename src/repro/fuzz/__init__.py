"""Adversarial scenario fuzzer: property-based invariant checking and
worst-case resilience search.

The paper's isospeed-efficiency metric ψ is only trustworthy if the
simulator honors its invariants across the whole scenario space, not
just the handful of presets the sweeps exercise.  This subsystem attacks
that gap from four sides:

* **generation** (:mod:`.generator`) -- seeded property-based sampling
  of valid-but-adversarial scenarios: heterogeneous node mixes × apps ×
  problem sizes × fault schedules × network kinds, all composed from the
  real :mod:`repro.machine` / :mod:`repro.faults` / :mod:`repro.network`
  types;
* **oracle** (:mod:`.oracle`, the one invariant module: runs, traces
  and fault sweeps) -- every scenario is checked for
  virtual-time causality, flops conservation, ψ ∈ (0, 1], ψ-monotonicity
  under fault severity, and serial == pool == cached bit-identity
  through the :class:`~repro.experiments.executor.SweepExecutor`;
* **adversarial search** (:mod:`.search`) -- deterministic hill climbing
  that maximizes ψ degradation per unit injected slowdown, yielding
  worst-case resilience curves (``repro faults attack``);
* **shrinking + corpus** (:mod:`.shrink`, :mod:`.corpus`) -- violations
  are delta-debugged to minimal reproducers and persisted under
  ``tests/fuzz/corpus/`` as bit-exact replayable regressions.

Quickstart::

    from repro.fuzz import fuzz_campaign

    result = fuzz_campaign(count=25, seed=42)
    print(result.summary())   # any violation ships a minimized corpus case
"""

from .campaign import CampaignResult, fuzz_campaign, violation_kinds
from .corpus import (
    CORPUS_DIR_ENV,
    FUZZ_CASE_KIND,
    CorpusCase,
    ReplayResult,
    corpus_paths,
    default_corpus_dir,
    load_case,
    make_case,
    replay_case,
    replay_corpus,
    save_case,
)
from .errors import CorpusError, FuzzError, ScenarioError
from .generator import (
    APP_SIZES,
    ScenarioGenerator,
    ScenarioSpace,
    app_workload,
    estimate_horizon,
)
from .oracle import (
    CheckConfig,
    InvariantViolation,
    ScenarioReport,
    check_bit_identity,
    check_invariants,
    check_scenario,
    check_sweep_invariants,
    check_trace_invariants,
    dump_violation,
    run_scenario,
)
from .scenario import (
    FUZZ_SCENARIO_KIND,
    HIERARCHICAL_NETWORK_SPECS,
    NETWORK_KINDS,
    NODE_PALETTE,
    ClusterModel,
    Scenario,
    valid_scenario_network,
)
from .search import (
    AttackResult,
    AttackStep,
    attack,
    attack_to_ledger,
    injected_cost,
    render_attack_curve,
    resilience_curve,
)
from .shrink import ShrinkResult, shrink_scenario

__all__ = [
    "APP_SIZES",
    "AttackResult",
    "AttackStep",
    "CORPUS_DIR_ENV",
    "CampaignResult",
    "CheckConfig",
    "ClusterModel",
    "CorpusCase",
    "CorpusError",
    "FUZZ_CASE_KIND",
    "FUZZ_SCENARIO_KIND",
    "FuzzError",
    "HIERARCHICAL_NETWORK_SPECS",
    "InvariantViolation",
    "NETWORK_KINDS",
    "NODE_PALETTE",
    "ReplayResult",
    "Scenario",
    "ScenarioError",
    "ScenarioGenerator",
    "ScenarioReport",
    "ScenarioSpace",
    "ShrinkResult",
    "app_workload",
    "attack",
    "attack_to_ledger",
    "check_bit_identity",
    "check_invariants",
    "check_scenario",
    "check_sweep_invariants",
    "check_trace_invariants",
    "corpus_paths",
    "default_corpus_dir",
    "dump_violation",
    "estimate_horizon",
    "fuzz_campaign",
    "injected_cost",
    "load_case",
    "make_case",
    "render_attack_curve",
    "replay_case",
    "replay_corpus",
    "resilience_curve",
    "run_scenario",
    "save_case",
    "shrink_scenario",
    "valid_scenario_network",
    "violation_kinds",
]
