"""Fuzz scenarios: one (cluster × app × N × fault schedule) point.

A :class:`Scenario` is the fuzzer's unit of work -- plain, frozen,
JSON-serializable data that composes *existing* repro types: a
:class:`ClusterModel` palette of real node types from
:mod:`repro.machine` (whose network kind is part of the model), an
application name from the experiment registry, a problem size, and a
:class:`~repro.faults.schedule.FaultSchedule`.  Everything the oracle,
shrinker, search and corpus exchange is a ``Scenario``;
``scenario_hash()`` gives each one a stable content identity (corpus
file names, dedup during shrinking).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..experiments.runner import resolve_app
from ..faults.errors import FaultScheduleError
from ..faults.schedule import FaultSchedule
from ..machine.cluster import ClusterSpec
from ..machine.presets import GENERIC_NODE
from ..machine.sunwulf import SERVER_NODE, SUNBLADE_NODE, V210_NODE
from ..network.ethernet import known_network_spec
from .errors import ScenarioError

FUZZ_SCENARIO_KIND = "fuzz-scenario"

#: Node palette the generator composes clusters from -- every entry is a
#: real machine-model node type, so generated clusters are exactly as
#: valid as the hand-written presets.  Order is canonical (cluster
#: normalization and shrinking walk it deterministically).
NODE_PALETTE: dict[str, Any] = {
    "server": SERVER_NODE,     # 4-way SMP head node
    "blade": SUNBLADE_NODE,    # single-CPU blade
    "v210": V210_NODE,         # 2-way SMP node
    "generic": GENERIC_NODE,   # calibration-free generic node
}

#: Default network kinds scenarios sample from.  ``zero`` (the idealized
#: free network) is deliberately excluded: it collapses communication
#: time to nothing and makes overhead-based invariants vacuous.  The
#: default set stays flat so historical corpus seeds replay identically;
#: spaces may opt into :data:`HIERARCHICAL_NETWORK_SPECS` (or any spec
#: accepted by :func:`~repro.network.ethernet.known_network_spec`, e.g.
#: ``fat-tree:8:2``) for rack-scale fuzzing.
NETWORK_KINDS = ("bus", "switch")

#: Representative hierarchical specs for opt-in rack-scale fuzzing.
HIERARCHICAL_NETWORK_SPECS = ("fat-tree:4:2", "torus", "tiered:4")


def valid_scenario_network(spec: str) -> bool:
    """True when ``spec`` is usable by a scenario (any parseable network
    spec except the invariant-vacuous ``zero``)."""
    return spec != "zero" and known_network_spec(spec)


@dataclass(frozen=True)
class ClusterModel:
    """A serializable cluster recipe: named node groups plus a network kind.

    ``groups`` is a tuple of ``(palette_name, count)`` pairs.  ``build()``
    realizes it as a :class:`~repro.machine.cluster.ClusterSpec` via
    ``ClusterSpec.from_nodes``, so marked speeds, link parameters and
    topology all come from the ordinary machine model.
    """

    groups: tuple[tuple[str, int], ...]
    network: str = "bus"

    def __post_init__(self) -> None:
        if not self.groups:
            raise ScenarioError("cluster model needs at least one node group")
        for name, count in self.groups:
            if name not in NODE_PALETTE:
                raise ScenarioError(
                    f"unknown node group {name!r}; palette: "
                    f"{sorted(NODE_PALETTE)}"
                )
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise ScenarioError(
                    f"node count for {name!r} must be a positive int, "
                    f"got {count!r}"
                )
        if not valid_scenario_network(self.network):
            raise ScenarioError(
                f"unknown network kind {self.network!r}; use one of "
                f"{NETWORK_KINDS}, or a hierarchical spec such as "
                f"{HIERARCHICAL_NETWORK_SPECS}"
            )
        if self.nranks < 2:
            raise ScenarioError(
                f"cluster must have at least 2 ranks, got {self.nranks}"
            )

    @property
    def nranks(self) -> int:
        return sum(
            count * NODE_PALETTE[name].cpus for name, count in self.groups
        )

    @property
    def name(self) -> str:
        body = "-".join(f"{name}x{count}" for name, count in self.groups)
        return f"fuzz-{body}"

    def normalized(self) -> "ClusterModel":
        """Merge duplicate groups and order them by palette position."""
        counts: dict[str, int] = {}
        for name, count in self.groups:
            counts[name] = counts.get(name, 0) + count
        groups = tuple(
            (name, counts[name]) for name in NODE_PALETTE if name in counts
        )
        if groups == self.groups:
            return self
        return ClusterModel(groups=groups, network=self.network)

    def build(self) -> ClusterSpec:
        nodes = []
        for name, count in self.groups:
            node = NODE_PALETTE[name]
            nodes.extend([(node, node.cpus)] * count)
        return ClusterSpec.from_nodes(
            self.name, nodes, network_kind=self.network
        )

    def to_payload(self) -> dict[str, Any]:
        return {
            "groups": [[name, count] for name, count in self.groups],
            "network": self.network,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "ClusterModel":
        raw = payload.get("groups") if isinstance(payload, dict) else None
        if not isinstance(raw, list) or any(
            not isinstance(g, list) or len(g) != 2 for g in raw
        ):
            raise ScenarioError(
                f"cluster payload needs [name, count] 'groups', got {payload!r}"
            )
        # Counts pass through unconverted: __post_init__ rejects non-ints.
        groups = tuple((str(name), count) for name, count in raw)
        return cls(groups=groups, network=str(payload.get("network", "bus")))


@dataclass(frozen=True)
class Scenario:
    """One fuzzable simulation: app × N × cluster × faults."""

    app: str
    n: int
    cluster: ClusterModel
    schedule: FaultSchedule = field(default_factory=FaultSchedule)
    seed: int = 0

    def __post_init__(self) -> None:
        try:
            canonical = resolve_app(self.app)
        except KeyError as exc:
            raise ScenarioError(str(exc)) from exc
        object.__setattr__(self, "app", canonical)
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 2:
            raise ScenarioError(f"n must be an int >= 2, got {self.n!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ScenarioError(f"seed must be an int, got {self.seed!r}")
        if canonical == "fft" and self.n & (self.n - 1):
            raise ScenarioError(
                f"fft problem sizes must be powers of two, got {self.n}"
            )
        try:
            self.schedule.validate_for(self.cluster.nranks)
        except Exception as exc:
            raise ScenarioError(
                f"schedule does not fit the cluster: {exc}"
            ) from exc

    @property
    def nranks(self) -> int:
        return self.cluster.nranks

    def describe(self) -> str:
        return (
            f"{self.app} N={self.n} on {self.cluster.name}"
            f"[{self.cluster.network}] ({self.nranks} ranks, "
            f"{len(self.schedule)} fault event(s))"
        )

    def build_cluster(self) -> ClusterSpec:
        return self.cluster.build()

    def with_schedule(self, schedule: FaultSchedule) -> "Scenario":
        return Scenario(
            app=self.app, n=self.n, cluster=self.cluster,
            schedule=schedule, seed=self.seed,
        )

    # -- serialization -----------------------------------------------------
    def to_payload(self) -> dict[str, Any]:
        return {
            "app": self.app,
            "n": self.n,
            "cluster": self.cluster.to_payload(),
            "schedule": self.schedule.to_payload(),
            "seed": self.seed,
            # A constant: scenario_hash() hashes this payload, and that
            # hash names the committed corpus files.
            "network_wrapper": None,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "Scenario":
        """Rebuild a scenario; any malformed field is a ScenarioError."""
        if not isinstance(payload, dict) or not (
            {"app", "n", "cluster", "schedule"} <= payload.keys()
        ):
            raise ScenarioError(
                f"scenario payload needs app, n, cluster and schedule, "
                f"got {payload!r}"
            )
        if payload.get("network_wrapper") is not None:
            raise ScenarioError(
                f"network_wrapper must be null, got "
                f"{payload['network_wrapper']!r}"
            )
        try:
            schedule = FaultSchedule.from_payload(payload["schedule"])
        except FaultScheduleError as exc:
            raise ScenarioError(f"malformed fault schedule: {exc}") from exc
        return cls(
            app=str(payload["app"]),
            n=payload["n"],
            cluster=ClusterModel.from_payload(payload["cluster"]),
            schedule=schedule,
            seed=payload.get("seed", 0),
        )

    def scenario_hash(self) -> str:
        """Stable 16-hex-digit content hash (corpus identity, dedup)."""
        canonical = json.dumps(
            self.to_payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def save(self, path: str | Path) -> None:
        """Persist as a versioned ``fuzz-scenario`` JSON document."""
        from ..experiments.persistence import write_json_document

        write_json_document(
            path, FUZZ_SCENARIO_KIND, self.to_payload(),
            metadata={"scenario_hash": self.scenario_hash()},
        )

    @classmethod
    def load(cls, path: str | Path) -> "Scenario":
        from ..experiments.persistence import read_json_document

        return cls.from_payload(read_json_document(path, FUZZ_SCENARIO_KIND))

