"""Seeded property-based scenario generation.

The generator samples valid-but-adversarial :class:`~.scenario.Scenario`
points from a :class:`ScenarioSpace`: heterogeneous node mixes drawn
from the palette, bus/switch networks, every registered application at
sizes known to stress its communication pattern, and fault schedules
drawn through :func:`repro.faults.schedule.random_schedule` against an
*analytic* makespan-horizon estimate (``W / (C·e_app·e_guess)``) so
generation never needs to pre-run baselines.

Determinism: scenario ``index`` under ``seed`` is a pure function --
each index derives its own ``random.Random(f"repro-fuzz:{seed}:{index}")``
stream (string seeding hashes through SHA-512, stable across platforms
and Python versions), so CI can re-draw scenario #17 of seed 42 forever.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from ..experiments.runner import APPLICATIONS, marked_speed_of, resolve_app
from ..faults.schedule import random_schedule
from .errors import ScenarioError
from .scenario import (
    NETWORK_KINDS,
    NODE_PALETTE,
    ClusterModel,
    Scenario,
    valid_scenario_network,
)

#: Default problem sizes per application -- small enough that a scenario
#: simulates in well under a second, large enough that communication and
#: faults overlap meaningfully.  FFT sizes must be powers of two.
APP_SIZES: dict[str, tuple[int, ...]] = {
    "ge": (48, 64, 96, 128, 160),
    "mm": (48, 64, 96, 128, 160),
    "stencil": (48, 64, 96, 128, 160),
    "fft": (64, 128, 256, 512),
}


def app_workload(app: str, n: int) -> float:
    """Total flop workload of ``app`` at size ``n`` (runner defaults)."""
    entry = APPLICATIONS[resolve_app(app)]
    return entry.workload(entry.options(n=n, speeds=(1.0,), **entry.extras(n)))


@dataclass(frozen=True)
class ScenarioSpace:
    """The sampling space the generator (and the attack mutator) draws from.

    The defaults exclude fail-stop crashes and message loss: a fail-stop
    rank legitimately abandons work (flops conservation does not apply)
    and lost messages deadlock applications that lack reliable-transfer
    recovery -- both are real behaviors, but not *invariant violations*,
    so the fuzzer generates only fault types every app must survive.
    """

    apps: tuple[str, ...] = ("ge", "mm", "stencil", "fft")
    sizes: dict[str, tuple[int, ...]] = field(
        default_factory=lambda: dict(APP_SIZES)
    )
    networks: tuple[str, ...] = NETWORK_KINDS
    node_groups: tuple[str, ...] = ("blade", "v210", "generic", "server")
    min_ranks: int = 2
    max_ranks: int = 8
    max_slowdowns: int = 3
    max_crashes: int = 1
    max_link_faults: int = 2
    severity_range: tuple[float, float] = (0.1, 0.9)
    duration_fraction: tuple[float, float] = (0.1, 0.6)
    restart_delay_fraction: float = 0.1
    bandwidth_factor_range: tuple[float, float] = (0.25, 0.9)
    #: Pessimistic parallel-efficiency guess turning the ideal compute
    #: time into a makespan-horizon estimate for fault placement.
    efficiency_guess: float = 0.2

    def __post_init__(self) -> None:
        if not self.apps:
            raise ScenarioError("scenario space needs at least one app")
        for app in self.apps:
            if resolve_app(app) not in self.sizes:
                raise ScenarioError(f"no problem sizes configured for {app!r}")
        for group in self.node_groups:
            if group not in NODE_PALETTE:
                raise ScenarioError(f"unknown node group {group!r}")
        for kind in self.networks:
            if not valid_scenario_network(kind):
                raise ScenarioError(f"unknown network kind {kind!r}")
        if not 2 <= self.min_ranks <= self.max_ranks:
            raise ScenarioError(
                f"need 2 <= min_ranks <= max_ranks, got "
                f"[{self.min_ranks}, {self.max_ranks}]"
            )
        for label, (lo, hi), floor, ceil in (
            ("severity_range", self.severity_range, 0.0, 1.0),
            ("duration_fraction", self.duration_fraction, 0.0, None),
            ("bandwidth_factor_range", self.bandwidth_factor_range,
             0.0, 1.0),
        ):
            if lo > hi or lo <= floor or (ceil is not None and hi >= ceil):
                raise ScenarioError(
                    f"{label} must be an ordered open interval inside "
                    f"({floor}, {ceil if ceil is not None else 'inf'}), "
                    f"got ({lo}, {hi})"
                )


def estimate_horizon(
    app: str, n: int, cluster: ClusterModel, efficiency_guess: float = 0.2
) -> float:
    """Analytic fault-placement horizon: a rough makespan upper estimate.

    ``W / (C · e_app · e_guess)`` -- the ideal compute time inflated by a
    pessimistic parallel-efficiency guess.  Faults drawn inside this
    window land during (or plausibly during) the run; precision does not
    matter, only that the window overlaps execution.
    """
    marked = marked_speed_of(cluster.build())
    ideal = app_workload(app, n) / (
        marked.total * APPLICATIONS[resolve_app(app)].compute_efficiency
    )
    return ideal / max(efficiency_guess, 1e-6)


class ScenarioGenerator:
    """Deterministic scenario sampler over a :class:`ScenarioSpace`."""

    def __init__(self, space: ScenarioSpace | None = None, seed: int = 0):
        self.space = space if space is not None else ScenarioSpace()
        self.seed = int(seed)

    def rng_for(self, index: int) -> random.Random:
        """The private draw stream of scenario ``index`` (pure function)."""
        return random.Random(f"repro-fuzz:{self.seed}:{index}")

    def scenario(self, index: int) -> Scenario:
        """Draw scenario ``index`` -- same seed, same index, same scenario."""
        rng = self.rng_for(index)
        space = self.space
        app = resolve_app(rng.choice(list(space.apps)))
        n = rng.choice(list(space.sizes[app]))
        cluster = self._draw_cluster(rng)
        schedule = self._draw_schedule(rng, app, n, cluster)
        return Scenario(app=app, n=n, cluster=cluster, schedule=schedule)

    def scenarios(self, count: int, start: int = 0) -> list[Scenario]:
        return [self.scenario(start + i) for i in range(count)]

    # -- draws -------------------------------------------------------------
    def _draw_cluster(self, rng: random.Random) -> ClusterModel:
        space = self.space
        network = rng.choice(list(space.networks))
        target = rng.randint(space.min_ranks, space.max_ranks)
        counts: dict[str, int] = {}
        ranks = 0
        while ranks < target:
            fitting = [
                g for g in space.node_groups
                if NODE_PALETTE[g].cpus <= target - ranks
            ]
            if not fitting:
                break
            group = rng.choice(fitting)
            counts[group] = counts.get(group, 0) + 1
            ranks += NODE_PALETTE[group].cpus
        if ranks < space.min_ranks:
            # Smallest palette unit could not reach the floor (e.g. a
            # space restricted to 4-way servers with target 2): take one
            # node of the smallest group instead.
            smallest = min(
                space.node_groups, key=lambda g: NODE_PALETTE[g].cpus
            )
            counts = {smallest: 1}
        groups = tuple(
            (name, counts[name]) for name in NODE_PALETTE if name in counts
        )
        return ClusterModel(groups=groups, network=network)

    def _draw_schedule(
        self, rng: random.Random, app: str, n: int, cluster: ClusterModel
    ):
        space = self.space
        horizon = estimate_horizon(
            app, n, cluster, efficiency_guess=space.efficiency_guess
        )
        return random_schedule(
            cluster.nranks,
            rng,
            horizon,
            n_slowdowns=rng.randint(0, space.max_slowdowns),
            n_crashes=rng.randint(0, space.max_crashes),
            n_link_faults=rng.randint(0, space.max_link_faults),
            severity_range=space.severity_range,
            duration_fraction=space.duration_fraction,
            restart_delay_fraction=space.restart_delay_fraction,
            bandwidth_factor_range=space.bandwidth_factor_range,
        )
