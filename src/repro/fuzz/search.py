"""Adversarial search: the worst fault schedule per unit of injected harm.

Mutation-based hill climbing over fault schedules (and optionally the
heterogeneity mix) with a deterministic RNG.  The objective is *ψ
degradation per unit injected slowdown*: ``score = (1 - ψ) / cost``
where :func:`injected_cost` normalizes the schedule's raw harm --
severity-weighted slowdown windows, link-degradation overhead windows
and crash downtime, all as fractions of the fault-free makespan.  A
schedule that halves ψ with a sliver of well-placed slowdown scores far
above one that merely throttles every rank, which is exactly the
"adversarial" in adversarial resilience.

``resilience_curve`` sweeps a cost-budget grid, warm-starting each
budget from the previous optimum, and yields the worst-case ψ attainable
per budget -- the paper-style resilience curve the ``repro faults
attack`` CLI records to the ledger.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..experiments.executor import resolve_executor
from ..faults.schedule import (
    FaultSchedule,
    LinkDegradation,
    NodeCrash,
    NodeSlowdown,
)
from ..obs.streaming import warn
from ..sim.errors import SimulationError
from .errors import FuzzError
from .generator import ScenarioSpace, estimate_horizon
from .oracle import run_scenario
from .scenario import ClusterModel, Scenario

_EPS_COST = 1e-6


def injected_cost(schedule: FaultSchedule, horizon: float) -> float:
    """Normalized harm injected by ``schedule`` over ``horizon`` seconds.

    Per event, as a fraction of the horizon: slowdowns contribute
    ``severity × window``; link degradations contribute their extra
    transfer overhead ``(1/bandwidth_factor - 1) + (latency_factor - 1)``
    over their window; crash-restarts contribute their downtime;
    fail-stop crashes the remaining horizon after the kill; message-loss
    rules a flat 1.0 each (no meaningful severity axis).  Unbounded
    windows clip at the horizon.  Linear in slowdown severity, so
    :meth:`FaultSchedule.scaled` scales cost down at least
    proportionally -- the property budget clamping relies on.
    """
    if horizon <= 0:
        raise FuzzError(f"horizon must be positive, got {horizon}")
    cost = 0.0
    for event in schedule.events:
        if isinstance(event, NodeSlowdown):
            start = min(event.onset, horizon)
            end = min(event.until, horizon)
            cost += event.severity * max(0.0, end - start) / horizon
        elif isinstance(event, NodeCrash):
            if event.is_failstop:
                cost += max(0.0, horizon - min(event.at, horizon)) / horizon
            else:
                cost += event.downtime / horizon
        elif isinstance(event, LinkDegradation):
            start = min(event.onset, horizon)
            end = min(event.until, horizon)
            overhead = (1.0 / event.bandwidth_factor - 1.0) + (
                event.latency_factor - 1.0
            )
            cost += overhead * max(0.0, end - start) / horizon
        else:  # MessageLoss
            cost += 1.0
    return cost


@dataclass
class AttackStep:
    """One hill-climbing iteration's outcome (history/debugging)."""

    iteration: int
    move: str
    psi: float
    cost: float
    score: float
    accepted: bool


@dataclass
class AttackResult:
    """The worst scenario found under one cost budget."""

    scenario: Scenario
    psi: float
    cost: float
    score: float
    budget: float
    baseline_makespan: float
    makespan: float
    iterations: int
    evaluations: int
    steps: list[AttackStep] = field(default_factory=list)

    def to_payload(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario.to_payload(),
            "scenario_hash": self.scenario.scenario_hash(),
            "psi": self.psi,
            "cost": self.cost,
            "score": self.score,
            "budget": self.budget,
            "baseline_makespan": self.baseline_makespan,
            "makespan": self.makespan,
            "iterations": self.iterations,
            "evaluations": self.evaluations,
        }


def _clamp_to_budget(
    schedule: FaultSchedule, horizon: float, budget: float
) -> FaultSchedule | None:
    """Scale ``schedule`` down until its cost fits ``budget``.

    Slowdown cost is linear in the scale factor and link cost strictly
    decreasing, so a few multiplicative steps converge; returns ``None``
    when even heavy scaling cannot fit (e.g. fail-stop dominated)."""
    cost = injected_cost(schedule, horizon)
    for _ in range(8):
        if cost <= budget:
            return schedule
        factor = max(0.0, min(1.0, 0.95 * budget / max(cost, _EPS_COST)))
        schedule = schedule.scaled(factor)
        if schedule.is_empty:
            return None
        cost = injected_cost(schedule, horizon)
    return schedule if cost <= budget else None


class _Mutator:
    """Deterministic schedule/cluster mutations for the hill climber."""

    def __init__(self, space: ScenarioSpace, horizon: float, nranks: int):
        self.space = space
        self.horizon = horizon
        self.nranks = nranks

    def _random_slowdown(self, rng: random.Random) -> NodeSlowdown:
        lo, hi = self.space.severity_range
        onset = rng.uniform(0.0, 0.7 * self.horizon)
        dlo, dhi = self.space.duration_fraction
        return NodeSlowdown(
            rank=rng.randrange(self.nranks),
            onset=onset,
            duration=rng.uniform(dlo, dhi) * self.horizon,
            severity=rng.uniform(lo, hi),
        )

    def _random_link(self, rng: random.Random) -> LinkDegradation:
        blo, bhi = self.space.bandwidth_factor_range
        dlo, dhi = self.space.duration_fraction
        return LinkDegradation(
            onset=rng.uniform(0.0, 0.7 * self.horizon),
            duration=rng.uniform(dlo, dhi) * self.horizon,
            bandwidth_factor=rng.uniform(blo, bhi),
            latency_factor=rng.uniform(1.0, 4.0),
        )

    def mutate(
        self, rng: random.Random, schedule: FaultSchedule
    ) -> tuple[str, FaultSchedule]:
        events = list(schedule.events)
        moves = ["add_slowdown", "add_link"]
        if events:
            moves += ["boost", "shift", "retarget", "drop", "stretch"]
        move = rng.choice(moves)
        if move == "add_slowdown":
            events.append(self._random_slowdown(rng))
        elif move == "add_link":
            events.append(self._random_link(rng))
        elif move == "drop":
            events.pop(rng.randrange(len(events)))
        else:
            idx = rng.randrange(len(events))
            event = events[idx]
            mutated = self._tweak(rng, move, event)
            if mutated is None:
                return "noop", schedule
            events[idx] = mutated
        return move, FaultSchedule(tuple(events))

    def _tweak(self, rng: random.Random, move: str, event: Any) -> Any:
        if isinstance(event, NodeSlowdown):
            if move == "boost":
                return NodeSlowdown(
                    rank=event.rank, onset=event.onset,
                    duration=event.duration,
                    severity=min(0.95, event.severity * rng.uniform(1.05, 1.4)),
                )
            if move == "shift":
                return NodeSlowdown(
                    rank=event.rank,
                    onset=max(0.0, min(
                        event.onset * rng.uniform(0.5, 1.5),
                        0.9 * self.horizon,
                    )),
                    duration=event.duration, severity=event.severity,
                )
            if move == "retarget":
                return NodeSlowdown(
                    rank=rng.randrange(self.nranks), onset=event.onset,
                    duration=event.duration, severity=event.severity,
                )
            if move == "stretch":
                duration = (
                    self.horizon * rng.uniform(0.2, 0.8)
                    if event.duration is None
                    else event.duration * rng.uniform(0.6, 1.6)
                )
                return NodeSlowdown(
                    rank=event.rank, onset=event.onset,
                    duration=duration, severity=event.severity,
                )
        if isinstance(event, LinkDegradation) and move in (
            "boost", "shift", "stretch", "retarget"
        ):
            if move == "boost":
                return LinkDegradation(
                    onset=event.onset, duration=event.duration,
                    bandwidth_factor=max(
                        0.05, event.bandwidth_factor * rng.uniform(0.6, 0.95)
                    ),
                    latency_factor=event.latency_factor,
                    src=event.src, dst=event.dst,
                )
            if move == "shift":
                return LinkDegradation(
                    onset=max(0.0, min(
                        event.onset * rng.uniform(0.5, 1.5),
                        0.9 * self.horizon,
                    )),
                    duration=event.duration,
                    bandwidth_factor=event.bandwidth_factor,
                    latency_factor=event.latency_factor,
                    src=event.src, dst=event.dst,
                )
            if move == "stretch" and event.duration is not None:
                return LinkDegradation(
                    onset=event.onset,
                    duration=event.duration * rng.uniform(0.6, 1.6),
                    bandwidth_factor=event.bandwidth_factor,
                    latency_factor=event.latency_factor,
                    src=event.src, dst=event.dst,
                )
        if isinstance(event, NodeCrash) and move == "shift":
            return NodeCrash(
                rank=event.rank,
                at=max(1e-9, min(
                    event.at * rng.uniform(0.5, 1.5), 0.9 * self.horizon
                )),
                restart_delay=event.restart_delay,
                recompute_seconds=event.recompute_seconds,
            )
        return None


def attack(
    app: str,
    cluster: ClusterModel,
    n: int,
    *,
    budget: float = 0.5,
    iterations: int = 40,
    seed: int = 0,
    start: FaultSchedule | None = None,
    space: ScenarioSpace | None = None,
    executor: Any = None,
) -> AttackResult:
    """Hill-climb toward the worst ψ attainable within ``budget``.

    ``budget`` caps :func:`injected_cost` (candidates over budget are
    scaled down or rejected, never run).  ``start`` warm-starts the climb
    (the resilience curve passes each budget's optimum to the next).
    Fully deterministic for fixed arguments: draws come from a private
    ``random.Random`` and simulation is bit-reproducible, so the found
    worst case replays exactly.  A candidate the engine rejects is
    skipped; the first one per attack prints a warning.
    """
    if budget <= 0:
        raise FuzzError(f"attack budget must be positive, got {budget}")
    if iterations < 1:
        raise FuzzError(f"iterations must be >= 1, got {iterations}")
    space = space if space is not None else ScenarioSpace()
    exe = resolve_executor(executor)
    rng = random.Random(f"repro-attack:{seed}:{budget!r}")
    horizon = estimate_horizon(
        app, n, cluster, efficiency_guess=space.efficiency_guess
    )
    mutator = _Mutator(space, horizon, cluster.nranks)

    evaluations = 0
    crashed = False

    def evaluate(schedule: FaultSchedule):
        nonlocal evaluations
        evaluations += 1
        faulty = run_scenario(
            Scenario(app=app, n=n, cluster=cluster, schedule=schedule),
            executor=exe,
        )
        return faulty

    # Seed point: warm start clamped into budget, else a random schedule.
    current = None
    if start is not None and not start.is_empty:
        current = _clamp_to_budget(
            start.validate_for(cluster.nranks), horizon, budget
        )
    if current is None or current.is_empty:
        fallback = FaultSchedule((mutator._random_slowdown(rng),))
        current = _clamp_to_budget(fallback, horizon, budget)
        if current is None:
            raise FuzzError(
                f"budget {budget} too small to fit any fault event"
            )

    faulty = evaluate(current)
    baseline_makespan = faulty.baseline.run.makespan
    best = AttackResult(
        scenario=Scenario(app=app, n=n, cluster=cluster, schedule=current),
        psi=faulty.psi,
        cost=injected_cost(current, horizon),
        score=(1.0 - faulty.psi) / max(
            injected_cost(current, horizon), _EPS_COST
        ),
        budget=budget,
        baseline_makespan=baseline_makespan,
        makespan=faulty.makespan,
        iterations=iterations,
        evaluations=0,
    )

    for iteration in range(iterations):
        move, candidate = mutator.mutate(rng, best.scenario.schedule)
        if move == "noop" or candidate == best.scenario.schedule:
            continue
        candidate = _clamp_to_budget(candidate, horizon, budget)
        if candidate is None or candidate.is_empty:
            continue
        cost = injected_cost(candidate, horizon)
        try:
            faulty = evaluate(candidate)
        except SimulationError as exc:
            if not crashed:
                crashed = True
                warn("fuzz.attack.candidate_crashed", move=move,
                     error=exc)
            continue
        psi = faulty.psi
        score = (1.0 - psi) / max(cost, _EPS_COST)
        accepted = score > best.score
        best.steps.append(AttackStep(
            iteration=iteration, move=move, psi=psi,
            cost=cost, score=score, accepted=accepted,
        ))
        if accepted:
            best.scenario = Scenario(
                app=app, n=n, cluster=cluster, schedule=candidate
            )
            best.psi = psi
            best.cost = cost
            best.score = score
            best.makespan = faulty.makespan
    best.evaluations = evaluations
    return best


def resilience_curve(
    app: str,
    cluster: ClusterModel,
    n: int,
    budgets: Sequence[float],
    *,
    iterations: int = 40,
    seed: int = 0,
    space: ScenarioSpace | None = None,
    executor: Any = None,
) -> list[AttackResult]:
    """Worst-case ψ per injected-cost budget (ascending warm-started grid).

    Returns one :class:`AttackResult` per budget; ψ along the curve is
    the *empirical lower envelope* of resilience: no schedule the search
    found within that budget degrades ψ further.
    """
    if not budgets:
        raise FuzzError("resilience curve needs at least one budget")
    results: list[AttackResult] = []
    previous: FaultSchedule | None = None
    for index, budget in enumerate(sorted(float(b) for b in budgets)):
        result = attack(
            app, cluster, n,
            budget=budget, iterations=iterations, seed=seed + index,
            start=previous, space=space, executor=executor,
        )
        results.append(result)
        previous = result.scenario.schedule
    return results


def attack_to_ledger(
    result: AttackResult,
    ledger: Any = None,
    *,
    executor: Any = None,
) -> str:
    """Record an attack optimum as a ``source="attack"`` ledger run.

    Re-executes the winning scenario (a cache hit with the executor the
    search used) so the record carries the full faulted-run surface, plus
    the attack metric block: budget, injected cost and the degradation
    score.  Returns the run id.
    """
    faulty = run_scenario(result.scenario, executor=executor)
    return faulty.to_ledger(
        ledger,
        source="attack",
        extra_metrics={
            "attack_budget": result.budget,
            "attack_cost": result.cost,
            "attack_score": result.score,
            "attack_iterations": float(result.iterations),
            "attack_evaluations": float(result.evaluations),
        },
    )


def render_attack_curve(
    results: Sequence[AttackResult], title: str = ""
) -> str:
    """Fixed-width table of a resilience curve (CLI output)."""
    from ..experiments.report import format_table

    return format_table(
        ["budget", "cost", "psi", "T'/T", "score", "events", "evals"],
        [
            [
                f"{r.budget:.3f}",
                f"{r.cost:.3f}",
                f"{r.psi:.4f}",
                f"{r.makespan / r.baseline_makespan:.3f}",
                f"{r.score:.3f}",
                f"{len(r.scenario.schedule)}",
                f"{r.evaluations}",
            ]
            for r in results
        ],
        title=title or "Worst-case resilience curve (adversarial search)",
    )
