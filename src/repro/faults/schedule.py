"""Deterministic fault schedules: typed fault events over virtual time.

A :class:`FaultSchedule` is an immutable collection of fault events that the
injector (:mod:`repro.faults.injection`) and the network wrapper
(:mod:`repro.faults.network`) interpret during a simulated run:

* :class:`NodeSlowdown` -- a rank computes at a reduced rate inside a time
  window (transient thermal throttling, co-located load, a failing disk).
* :class:`NodeCrash` -- a rank fails at an instant; either *fail-stop*
  (``restart_delay=None``: a :class:`~repro.faults.errors.RankFailedError`
  is thrown into the victim) or *crash-restart* (the rank is down for
  ``restart_delay`` + ``recompute_seconds`` of modelled re-execution, then
  resumes from its local state).
* :class:`LinkDegradation` -- transfers requested inside a window have their
  bandwidth scaled down and/or latency scaled up, optionally restricted to
  one (src, dst) pair.
* :class:`MessageLoss` -- a deterministic drop predicate: of the messages
  matching the (src, dst) filter inside the window, every ``every``-th one
  (phase ``offset``) is lost in transit.

Everything is plain data: schedules serialize to versioned JSON documents
(via :func:`repro.experiments.write_json_document`), hash stably for ledger
provenance, and can be produced by seeded random generators so a "random"
fault scenario is exactly reproducible from ``(seed, parameters)``.

All times are *virtual* seconds on the engine clock.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Union

from .errors import FaultScheduleError

#: JSON document ``kind`` for persisted schedules.
FAULT_SCHEDULE_KIND = "fault-schedule"


def _check_rank(rank: int) -> None:
    if rank < 0:
        raise FaultScheduleError(f"fault rank must be >= 0, got {rank}")


def _check_window(onset: float, duration: float | None) -> None:
    if onset < 0:
        raise FaultScheduleError(f"fault onset must be >= 0, got {onset}")
    if duration is not None and duration <= 0:
        raise FaultScheduleError(
            f"fault duration must be positive (or None for open-ended), "
            f"got {duration}"
        )


@dataclass(frozen=True)
class NodeSlowdown:
    """Rank ``rank`` computes at ``(1 - severity)`` of its rate in a window.

    ``duration=None`` leaves the slowdown active until the end of the run.
    Overlapping slowdowns on the same rank compound multiplicatively.
    Only ``Compute(flops=...)`` work is slowed; fixed ``Compute(seconds=...)``
    software overheads are rate-independent by definition.
    """

    rank: int
    onset: float
    duration: float | None
    severity: float

    def __post_init__(self) -> None:
        _check_rank(self.rank)
        _check_window(self.onset, self.duration)
        if not 0.0 < self.severity < 1.0:
            raise FaultScheduleError(
                f"slowdown severity must be in (0, 1), got {self.severity}"
            )

    @property
    def until(self) -> float:
        """End of the window (``math.inf`` when open-ended)."""
        return math.inf if self.duration is None else self.onset + self.duration

    @property
    def factor(self) -> float:
        """Remaining fraction of the compute rate inside the window."""
        return 1.0 - self.severity


@dataclass(frozen=True)
class NodeCrash:
    """Rank ``rank`` fails at time ``at``.

    ``restart_delay=None`` means fail-stop: the rank never comes back and a
    :class:`~repro.faults.errors.RankFailedError` is thrown into its
    program.  Otherwise the rank is unavailable for ``restart_delay``
    seconds (reboot / failover) plus ``recompute_seconds`` of modelled
    re-execution from its last consistent local state, then continues.
    """

    rank: int
    at: float
    restart_delay: float | None = None
    recompute_seconds: float = 0.0

    def __post_init__(self) -> None:
        _check_rank(self.rank)
        if self.at < 0:
            raise FaultScheduleError(f"crash time must be >= 0, got {self.at}")
        if self.restart_delay is not None and self.restart_delay < 0:
            raise FaultScheduleError(
                f"restart_delay must be >= 0, got {self.restart_delay}"
            )
        if self.recompute_seconds < 0:
            raise FaultScheduleError(
                f"recompute_seconds must be >= 0, got {self.recompute_seconds}"
            )
        if self.restart_delay is None and self.recompute_seconds:
            raise FaultScheduleError(
                "recompute_seconds requires restart_delay (a fail-stop "
                "crash never recomputes)"
            )

    @property
    def is_failstop(self) -> bool:
        return self.restart_delay is None

    @property
    def downtime(self) -> float:
        """Unavailable time for a crash-restart event (0 for fail-stop)."""
        if self.restart_delay is None:
            return 0.0
        return self.restart_delay + self.recompute_seconds


@dataclass(frozen=True)
class LinkDegradation:
    """Transfers inside a window are slowed and/or delayed.

    ``bandwidth_factor`` in (0, 1] multiplies the effective bandwidth (the
    sender-side occupation stretches by ``1/bandwidth_factor``);
    ``latency_factor`` >= 1 multiplies the in-flight transit time.  ``src``
    / ``dst`` of ``None`` match any rank.  Window membership is decided by
    the transfer's *request* time, which keeps the perturbation causal
    under the engine's smallest-clock invariant.  Overlapping degradations
    compound multiplicatively.
    """

    onset: float
    duration: float | None
    bandwidth_factor: float = 1.0
    latency_factor: float = 1.0
    src: int | None = None
    dst: int | None = None

    def __post_init__(self) -> None:
        _check_window(self.onset, self.duration)
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise FaultScheduleError(
                f"bandwidth_factor must be in (0, 1], got {self.bandwidth_factor}"
            )
        if self.latency_factor < 1.0:
            raise FaultScheduleError(
                f"latency_factor must be >= 1, got {self.latency_factor}"
            )
        if self.bandwidth_factor == 1.0 and self.latency_factor == 1.0:
            raise FaultScheduleError(
                "LinkDegradation must degrade something (bandwidth_factor<1 "
                "or latency_factor>1)"
            )
        for peer in (self.src, self.dst):
            if peer is not None:
                _check_rank(peer)

    @property
    def until(self) -> float:
        return math.inf if self.duration is None else self.onset + self.duration

    def applies(self, src: int, dst: int, start: float) -> bool:
        return (
            (self.src is None or self.src == src)
            and (self.dst is None or self.dst == dst)
            and self.onset <= start < self.until
        )


@dataclass(frozen=True)
class MessageLoss:
    """Deterministic drop predicate over matching point-to-point transfers.

    Of the transfers matching the (src, dst) filter whose request time lies
    in ``[onset, until)``, the ones whose 0-based match index ``k``
    satisfies ``k % every == offset`` are lost in transit (the sender pays
    the full send cost; nothing is ever delivered).  ``max_drops`` bounds
    the total losses of this rule.  ``every=1, offset=0`` drops every
    matching message.
    """

    src: int | None = None
    dst: int | None = None
    every: int = 1
    offset: int = 0
    max_drops: int | None = None
    onset: float = 0.0
    until: float | None = None

    def __post_init__(self) -> None:
        if self.every < 1:
            raise FaultScheduleError(f"every must be >= 1, got {self.every}")
        if not 0 <= self.offset < self.every:
            raise FaultScheduleError(
                f"offset must be in [0, every), got {self.offset}"
            )
        if self.max_drops is not None and self.max_drops < 1:
            raise FaultScheduleError(
                f"max_drops must be >= 1, got {self.max_drops}"
            )
        if self.onset < 0:
            raise FaultScheduleError(f"onset must be >= 0, got {self.onset}")
        if self.until is not None and self.until <= self.onset:
            raise FaultScheduleError(
                f"until ({self.until}) must be after onset ({self.onset})"
            )
        for peer in (self.src, self.dst):
            if peer is not None:
                _check_rank(peer)

    def matches(self, src: int, dst: int, start: float) -> bool:
        end = math.inf if self.until is None else self.until
        return (
            (self.src is None or self.src == src)
            and (self.dst is None or self.dst == dst)
            and self.onset <= start < end
        )


FaultEvent = Union[NodeSlowdown, NodeCrash, LinkDegradation, MessageLoss]

_EVENT_TYPES: dict[str, type] = {
    "slowdown": NodeSlowdown,
    "crash": NodeCrash,
    "link": LinkDegradation,
    "loss": MessageLoss,
}
_TYPE_NAMES = {cls: name for name, cls in _EVENT_TYPES.items()}


def _event_to_dict(event: FaultEvent) -> dict[str, Any]:
    data: dict[str, Any] = {"type": _TYPE_NAMES[type(event)]}
    for f in fields(event):
        data[f.name] = getattr(event, f.name)
    return data


def _event_from_dict(data: dict[str, Any]) -> FaultEvent:
    if not isinstance(data, dict):
        raise FaultScheduleError(f"fault event must be an object, got {data!r}")
    kind = data.get("type")
    cls = _EVENT_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise FaultScheduleError(f"unknown fault event type {kind!r}")
    known = {f.name for f in fields(cls)}
    kwargs = {k: v for k, v in data.items() if k in known}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise FaultScheduleError(f"bad {kind!r} event {data!r}: {exc}") from exc


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, serializable collection of fault events."""

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        events = tuple(self.events)
        for event in events:
            if type(event) not in _TYPE_NAMES:
                raise FaultScheduleError(
                    f"unsupported fault event {event!r}"
                )
        object.__setattr__(self, "events", events)

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def is_empty(self) -> bool:
        return not self.events

    def slowdowns(self, rank: int) -> tuple[NodeSlowdown, ...]:
        """Slowdown windows for one rank, ordered by onset."""
        return tuple(sorted(
            (e for e in self.events
             if isinstance(e, NodeSlowdown) and e.rank == rank),
            key=lambda e: (e.onset, e.until, e.severity),
        ))

    def crashes(self, rank: int) -> tuple[NodeCrash, ...]:
        """Crash events for one rank, ordered by time."""
        return tuple(sorted(
            (e for e in self.events
             if isinstance(e, NodeCrash) and e.rank == rank),
            key=lambda e: e.at,
        ))

    def all_crashes(self) -> tuple[NodeCrash, ...]:
        """Every crash event, ordered by time (ties by rank)."""
        return tuple(sorted(
            (e for e in self.events if isinstance(e, NodeCrash)),
            key=lambda e: (e.at, e.rank),
        ))

    def link_faults(self) -> tuple[LinkDegradation, ...]:
        return tuple(e for e in self.events if isinstance(e, LinkDegradation))

    def losses(self) -> tuple[MessageLoss, ...]:
        return tuple(e for e in self.events if isinstance(e, MessageLoss))

    def affected_ranks(self) -> frozenset[int]:
        """Ranks whose *compute timeline* is perturbed (slowdown or crash)."""
        return frozenset(
            e.rank for e in self.events
            if isinstance(e, (NodeSlowdown, NodeCrash))
        )

    @property
    def has_network_faults(self) -> bool:
        return any(
            isinstance(e, (LinkDegradation, MessageLoss)) for e in self.events
        )

    def max_rank(self) -> int:
        """Largest rank referenced by any event (-1 when none)."""
        ranks = [-1]
        for e in self.events:
            if isinstance(e, (NodeSlowdown, NodeCrash)):
                ranks.append(e.rank)
            else:
                for peer in (e.src, e.dst):
                    if peer is not None:
                        ranks.append(peer)
        return max(ranks)

    def validate_for(self, nranks: int) -> "FaultSchedule":
        """Raise when any event references a rank outside ``[0, nranks)``."""
        top = self.max_rank()
        if top >= nranks:
            raise FaultScheduleError(
                f"schedule references rank {top} but the run has only "
                f"{nranks} ranks"
            )
        return self

    def scaled(self, factor: float) -> "FaultSchedule":
        """The same schedule with every event's *severity* scaled.

        ``factor`` in [0, 1] interpolates each event toward harmlessness
        at its original onset: slowdown severities scale linearly, link
        bandwidth/latency factors interpolate toward 1, crash-restart
        downtime (restart delay + recompute) scales linearly, and
        fail-stop crashes are dropped below factor 1 (there is no
        "milder" fail-stop).  Events that become no-ops (zero severity,
        unit link factors) are dropped.  ``scaled(1.0)`` is the identity;
        ``scaled(0.0)`` is the empty schedule.  This is the severity axis
        the fuzzer's monotonicity oracle and the adversarial search walk.
        """
        if not 0.0 <= factor <= 1.0:
            raise FaultScheduleError(
                f"scale factor must be in [0, 1], got {factor}"
            )
        if factor == 1.0:
            return self
        if factor == 0.0:
            return FaultSchedule()
        events: list[FaultEvent] = []
        for event in self.events:
            if isinstance(event, NodeSlowdown):
                severity = event.severity * factor
                if severity > 0.0:
                    events.append(NodeSlowdown(
                        rank=event.rank, onset=event.onset,
                        duration=event.duration, severity=severity,
                    ))
            elif isinstance(event, NodeCrash):
                if event.restart_delay is None:
                    continue  # fail-stop has no milder form
                events.append(NodeCrash(
                    rank=event.rank, at=event.at,
                    restart_delay=event.restart_delay * factor,
                    recompute_seconds=event.recompute_seconds * factor,
                ))
            elif isinstance(event, LinkDegradation):
                bandwidth = 1.0 - (1.0 - event.bandwidth_factor) * factor
                latency = 1.0 + (event.latency_factor - 1.0) * factor
                if bandwidth < 1.0 or latency > 1.0:
                    events.append(LinkDegradation(
                        onset=event.onset, duration=event.duration,
                        bandwidth_factor=bandwidth, latency_factor=latency,
                        src=event.src, dst=event.dst,
                    ))
            else:
                events.append(event)  # MessageLoss has no severity axis
        return FaultSchedule(tuple(events))

    def extended(self, events: Iterable[FaultEvent]) -> "FaultSchedule":
        """A new schedule with ``events`` appended."""
        return FaultSchedule(self.events + tuple(events))

    # -- serialization -----------------------------------------------------
    def to_payload(self) -> dict[str, Any]:
        return {"events": [_event_to_dict(e) for e in self.events]}

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "FaultSchedule":
        raw = payload.get("events") if isinstance(payload, dict) else None
        if not isinstance(raw, list):
            raise FaultScheduleError(
                "fault-schedule payload must contain an 'events' list"
            )
        return cls(tuple(_event_from_dict(d) for d in raw))

    def save(self, path: str | Path) -> None:
        """Persist as a versioned ``fault-schedule`` JSON document."""
        from ..experiments.persistence import write_json_document

        write_json_document(
            path, FAULT_SCHEDULE_KIND, self.to_payload(),
            metadata={"profile_hash": self.profile_hash()},
        )

    @classmethod
    def load(cls, path: str | Path) -> "FaultSchedule":
        from ..experiments.persistence import read_json_document

        payload = read_json_document(path, FAULT_SCHEDULE_KIND)
        return cls.from_payload(payload)

    def profile_hash(self) -> str:
        """Stable 16-hex-digit content hash of the schedule.

        Ledger records and sweep cache keys carry this: two runs are
        comparable only when their fault profiles hash identically.
        Computed once per instance (events are frozen dataclasses).
        """
        return self._profile_hash

    @cached_property
    def _profile_hash(self) -> str:
        canonical = json.dumps(
            self.to_payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# -- schedule generators -----------------------------------------------------

class _NumpyRngAdapter:
    """Adapts a ``numpy.random.Generator`` to the ``random.Random`` subset
    the schedule generators draw from (``uniform``/``randrange``)."""

    def __init__(self, generator: Any):
        self._generator = generator

    def uniform(self, a: float, b: float) -> float:
        return float(self._generator.uniform(a, b))

    def randrange(self, n: int) -> int:
        return int(self._generator.integers(n))


def resolve_rng(seed: Any) -> Any:
    """The RNG behind a stochastic generator's ``seed`` argument.

    Accepts an ``int`` (seeds a private ``random.Random``), an existing
    ``random.Random``, or a ``numpy.random.Generator`` (duck-typed on
    ``integers``/``uniform``, so numpy is never imported here).  Passing a
    live RNG lets callers interleave several generators on one stream;
    passing an int gives the standalone same-arguments-same-schedule
    guarantee.
    """
    if isinstance(seed, random.Random):
        return seed
    if isinstance(seed, int) and not isinstance(seed, bool):
        return random.Random(seed)
    if hasattr(seed, "integers") and hasattr(seed, "uniform"):
        return _NumpyRngAdapter(seed)
    raise FaultScheduleError(
        f"seed must be an int, random.Random or numpy.random.Generator, "
        f"got {type(seed).__name__}"
    )


def uniform_slowdown(
    nranks: int,
    severity: float,
    onset: float = 0.0,
    duration: float | None = None,
    ranks: Iterable[int] | None = None,
) -> FaultSchedule:
    """Slow every rank (or the given ``ranks``) down by ``severity``.

    ``severity=0`` returns an empty schedule -- the fault-free baseline of
    an intensity sweep.
    """
    if severity == 0.0:
        return FaultSchedule()
    targets = range(nranks) if ranks is None else ranks
    return FaultSchedule(tuple(
        NodeSlowdown(rank=r, onset=onset, duration=duration, severity=severity)
        for r in targets
    ))


def random_schedule(
    nranks: int,
    seed: int | random.Random | Any,
    horizon: float,
    n_slowdowns: int = 2,
    n_crashes: int = 0,
    n_link_faults: int = 0,
    severity_range: tuple[float, float] = (0.2, 0.8),
    duration_fraction: tuple[float, float] = (0.1, 0.5),
    restart_delay_fraction: float | None = 0.1,
    bandwidth_factor_range: tuple[float, float] = (0.25, 0.9),
) -> FaultSchedule:
    """A random-but-reproducible schedule: same arguments, same schedule.

    **Determinism guarantee:** with an integer ``seed`` the returned
    schedule is a pure function of the argument tuple -- same arguments,
    same events, bit for bit, on every platform and Python version (the
    draws go through a private ``random.Random(seed)``, whose sequence
    is part of CPython's documented stable API).  ``seed`` may instead be
    a live ``random.Random`` or ``numpy.random.Generator``
    (see :func:`resolve_rng`), in which case reproducibility is the
    caller's: the generator consumes a fixed number of draws per event
    in documented order (slowdowns, then crashes, then link faults).

    ``horizon`` is the virtual-time span faults are drawn from (typically a
    fault-free makespan estimate).  ``restart_delay_fraction=None`` makes
    generated crashes fail-stop; otherwise each crash restarts after that
    fraction of the horizon.
    """
    if nranks <= 0:
        raise FaultScheduleError(f"nranks must be positive, got {nranks}")
    if horizon <= 0:
        raise FaultScheduleError(f"horizon must be positive, got {horizon}")
    rng = resolve_rng(seed)
    events: list[FaultEvent] = []
    for _ in range(n_slowdowns):
        onset = rng.uniform(0.0, 0.7 * horizon)
        duration = rng.uniform(*duration_fraction) * horizon
        events.append(NodeSlowdown(
            rank=rng.randrange(nranks),
            onset=onset,
            duration=duration,
            severity=rng.uniform(*severity_range),
        ))
    for _ in range(n_crashes):
        restart = (
            None if restart_delay_fraction is None
            else restart_delay_fraction * horizon
        )
        recompute = 0.0 if restart is None else rng.uniform(0.0, 0.5) * restart
        events.append(NodeCrash(
            rank=rng.randrange(nranks),
            at=rng.uniform(0.1 * horizon, 0.9 * horizon),
            restart_delay=restart,
            recompute_seconds=recompute,
        ))
    for _ in range(n_link_faults):
        onset = rng.uniform(0.0, 0.7 * horizon)
        events.append(LinkDegradation(
            onset=onset,
            duration=rng.uniform(*duration_fraction) * horizon,
            bandwidth_factor=rng.uniform(*bandwidth_factor_range),
            latency_factor=1.0 + rng.uniform(0.0, 2.0),
        ))
    return FaultSchedule(tuple(events))
