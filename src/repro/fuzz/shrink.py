"""Scenario minimization: the smallest reproducer that still fails.

``shrink_scenario`` greedily reduces a violating scenario while a
caller-supplied predicate keeps failing -- delta-debugging over the
fault-event list (drop halves, then quarters, ... then single events),
problem-size halving, and node-group removal.  Every candidate is a
*valid* scenario (invalid reductions are skipped, never run), every
decision is deterministic, and total predicate evaluations are bounded,
so CI shrinks the same violation to the same minimized corpus case every
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .scenario import ClusterModel, Scenario
from .errors import ScenarioError
from ..faults.schedule import FaultSchedule, LinkDegradation, NodeCrash, NodeSlowdown

#: Floor for problem-size shrinking: small enough to be a near-trivial
#: reproducer, large enough that every app still decomposes sensibly.
MIN_SHRINK_N = 16


@dataclass
class ShrinkResult:
    """Outcome of a shrink: the minimized scenario plus bookkeeping."""

    scenario: Scenario
    evaluations: int
    steps: list[str] = field(default_factory=list)

    @property
    def reduced(self) -> bool:
        return bool(self.steps)


def _filtered_schedule(
    schedule: FaultSchedule, nranks: int
) -> FaultSchedule:
    """Drop events referencing ranks outside ``[0, nranks)``."""
    events = []
    for event in schedule.events:
        if isinstance(event, (NodeSlowdown, NodeCrash)):
            if event.rank >= nranks:
                continue
        elif isinstance(event, LinkDegradation):
            peers = [p for p in (event.src, event.dst) if p is not None]
            if any(p >= nranks for p in peers):
                continue
        events.append(event)
    return FaultSchedule(tuple(events))


def _event_subsets(events: tuple) -> list[tuple]:
    """Candidate reduced event tuples, largest cuts first (ddmin-style):
    drop each half, then each quarter, ... then each single event."""
    out: list[tuple] = []
    n = len(events)
    chunk = n  # first candidate drops everything (empty schedule)
    while chunk >= 1:
        for start in range(0, n, chunk):
            remaining = events[:start] + events[start + chunk:]
            if len(remaining) < n:
                out.append(remaining)
        chunk //= 2
    seen: set[tuple] = set()
    unique = []
    for subset in out:
        if subset not in seen:
            seen.add(subset)
            unique.append(subset)
    return unique


def _smaller_sizes(app: str, n: int, min_n: int) -> list[int]:
    """Problem sizes to try, most aggressive first (fft stays a power
    of two by construction under halving)."""
    sizes = []
    candidate = n // 2
    while candidate >= min_n:
        sizes.append(candidate)
        candidate //= 2
    sizes.reverse()  # smallest first: take the biggest cut that works
    return sizes


def _smaller_clusters(cluster: ClusterModel) -> list[ClusterModel]:
    """One-node-removed variants of each group, in palette order."""
    out = []
    for idx, (name, count) in enumerate(cluster.groups):
        if count > 1:
            groups = list(cluster.groups)
            groups[idx] = (name, count - 1)
        else:
            groups = [g for i, g in enumerate(cluster.groups) if i != idx]
        if not groups:
            continue
        try:
            out.append(ClusterModel(
                groups=tuple(groups), network=cluster.network
            ))
        except ScenarioError:
            continue  # e.g. dropped below 2 ranks
    return out


def shrink_scenario(
    scenario: Scenario,
    still_fails: Callable[[Scenario], bool],
    *,
    max_evaluations: int = 200,
    min_n: int = MIN_SHRINK_N,
) -> ShrinkResult:
    """Minimize ``scenario`` while ``still_fails(candidate)`` stays true.

    ``still_fails`` should re-run the oracle and answer whether the
    candidate reproduces the *original* violation (same kind); it is
    called at most ``max_evaluations`` times.  Deterministic: candidates
    are tried in a fixed order and the first accepted reduction restarts
    the round, so the result is a local minimum independent of timing.
    """
    current = scenario
    evals = 0
    steps: list[str] = []
    tried: set[str] = {scenario.scenario_hash()}

    def attempt(candidate: Scenario, step: str) -> bool:
        nonlocal current, evals
        key = candidate.scenario_hash()
        if key in tried or evals >= max_evaluations:
            return False
        tried.add(key)
        evals += 1
        if still_fails(candidate):
            current = candidate
            steps.append(step)
            return True
        return False

    progress = True
    while progress and evals < max_evaluations:
        progress = False

        # 1. Fewer fault events (largest cuts first).
        for subset in _event_subsets(current.schedule.events):
            try:
                candidate = current.with_schedule(FaultSchedule(subset))
            except ScenarioError:
                continue
            if attempt(
                candidate,
                f"events:{len(current.schedule)}->{len(subset)}",
            ):
                progress = True
                break
        if progress:
            continue

        # 2. Smaller problem size.
        for size in _smaller_sizes(current.app, current.n, min_n):
            try:
                candidate = Scenario(
                    app=current.app, n=size, cluster=current.cluster,
                    schedule=current.schedule, seed=current.seed,
                )
            except ScenarioError:
                continue
            if attempt(candidate, f"n:{current.n}->{size}"):
                progress = True
                break
        if progress:
            continue

        # 3. Smaller cluster (events referencing removed ranks dropped).
        for smaller in _smaller_clusters(current.cluster):
            schedule = _filtered_schedule(current.schedule, smaller.nranks)
            try:
                candidate = Scenario(
                    app=current.app, n=current.n, cluster=smaller,
                    schedule=schedule, seed=current.seed,
                )
            except ScenarioError:
                continue
            if attempt(
                candidate,
                f"ranks:{current.nranks}->{smaller.nranks}",
            ):
                progress = True
                break

    return ShrinkResult(scenario=current, evaluations=evals, steps=steps)
