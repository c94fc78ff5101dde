"""Per-rank program wrapping: inject compute faults without engine changes.

The engine schedules whole generators; faults that perturb a rank's
*compute timeline* (slowdowns, crashes) are injected by wrapping the rank's
program generator.  The wrapper mirrors the rank's virtual clock -- Compute
durations are recomputed locally with the same float arithmetic the engine
uses, Recv completions resync from the returned message, and a ``Now`` probe
resyncs after sends -- and rewrites ``Compute`` operations on the fly:

* ``Compute(flops=f)`` is split into piecewise segments at slowdown-window
  and crash boundaries; inside a window the effective rate is
  ``rate * prod(1 - severity)`` over the active windows, charged as
  ``Compute(flops=..., seconds=...)`` — the duration-override form — so the
  engine's smallest-clock causality is untouched *and* the rank's flops
  accounting stays exact (``RankStats.flops`` matches the unfaulted run).
* ``Compute(seconds=s)`` (fixed software overhead) is rate-independent and
  only split at crash instants.
* A fail-stop :class:`~repro.faults.schedule.NodeCrash` throws
  :class:`~repro.faults.errors.RankFailedError` into the victim's generator
  at its current yield; uncaught, the rank simply stops at the crash time.
  A crash-restart event inserts ``restart_delay + recompute_seconds`` of
  downtime and resumes the same generator (restore from local state).

Ranks without compute faults receive their *raw* generator, so an empty
schedule reproduces the unwrapped run bit for bit.

All decisions depend only on (schedule, program, network), so wrapped runs
are exactly as deterministic and replayable as plain ones.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from ..sim.engine import Program, ProgramFactory
from ..sim.events import Compute, Log, Multicast, Now, Recv, Send
from .errors import RankFailedError
from .schedule import FaultSchedule, LinkDegradation, NodeSlowdown


class FaultTraceEvent:
    """One fault occurrence, for the fault track of traces."""

    __slots__ = ("time", "rank", "kind", "detail")

    def __init__(self, time: float, rank: int, kind: str, detail: str = ""):
        self.time = time
        self.rank = rank  # -1 for network-level events
        self.kind = kind  # slowdown | crash | restart | message.lost | ...
        self.detail = detail

    def __repr__(self) -> str:
        return (
            f"FaultTraceEvent(t={self.time:g}, rank={self.rank}, "
            f"kind={self.kind!r}, detail={self.detail!r})"
        )


class FaultInjector:
    """Collects what actually happened during a faulted run.

    One injector accompanies one run: the program wrappers and the
    :class:`~repro.faults.network.FaultyNetworkModel` report into it, and
    the analysis layer reads per-rank downtime / fail-stop times out of it
    to compute availabilities and the effective marked speed.
    """

    def __init__(self, schedule: FaultSchedule):
        self.schedule = schedule
        self.events: list[FaultTraceEvent] = []
        self.downtime: dict[int, float] = {}
        self.failed_at: dict[int, float] = {}
        self.messages_dropped = 0
        # Window-shaped faults are schedule-determined; record them upfront
        # so the fault track shows them even when no op lands inside.
        for event in schedule.events:
            if isinstance(event, NodeSlowdown):
                self.record(
                    event.onset, event.rank, "slowdown",
                    f"severity={event.severity:g} until={event.until:g}",
                )
            elif isinstance(event, LinkDegradation):
                self.record(
                    event.onset, -1, "link.degraded",
                    f"bandwidth_factor={event.bandwidth_factor:g} "
                    f"latency_factor={event.latency_factor:g} "
                    f"until={event.until:g}",
                )

    # -- reporting ---------------------------------------------------------
    def record(self, time: float, rank: int, kind: str, detail: str = "") -> None:
        self.events.append(FaultTraceEvent(time, rank, kind, detail))

    def record_loss(self, src: int, dst: int, nbytes: float, start: float) -> None:
        self.messages_dropped += 1
        self.record(start, src, "message.lost", f"dst={dst} nbytes={nbytes:g}")

    def mark_failed(self, rank: int, at: float) -> None:
        self.failed_at.setdefault(rank, at)

    def add_downtime(self, rank: int, seconds: float) -> None:
        self.downtime[rank] = self.downtime.get(rank, 0.0) + seconds

    # -- derived -----------------------------------------------------------
    def availabilities(self, nranks: int, makespan: float) -> list[float]:
        """Per-rank availability ``a_i`` in [0, 1] over a run of length
        ``makespan``: fail-stop ranks count until their crash; restarted
        ranks lose their accumulated downtime."""
        if makespan <= 0:
            return [1.0] * nranks
        out: list[float] = []
        for rank in range(nranks):
            if rank in self.failed_at:
                avail = min(self.failed_at[rank], makespan) / makespan
            else:
                down = min(self.downtime.get(rank, 0.0), makespan)
                avail = 1.0 - down / makespan
            out.append(max(0.0, min(1.0, avail)))
        return out

    def annotate_tracer(self, tracer: Any) -> None:
        """Append the fault events to a tracer as a ``fault`` track.

        Network-level events (``rank == -1``, e.g. ``link.degraded``) keep
        their negative rank; the Chrome exporter renders those on a
        dedicated ``network`` pseudo-track rather than folding them into
        rank 0's timeline.
        """
        for ev in sorted(self.events, key=lambda e: (e.time, e.rank, e.kind)):
            tracer.append((
                ev.rank, "fault", ev.time, ev.time,
                f"{ev.kind} {ev.detail}".strip(),
            ))


class _RankDead(Exception):
    """Internal: the wrapped program terminated at a fail-stop crash."""

    def __init__(self, value: Any = None):
        self.value = value
        super().__init__("rank terminated by fail-stop crash")


def faulty_program_factory(
    factory: ProgramFactory,
    schedule: FaultSchedule,
    flops_per_second: list[float],
    injector: FaultInjector,
) -> ProgramFactory:
    """Wrap a program factory so affected ranks see their scheduled faults.

    Ranks without slowdown/crash events get their raw generator back, which
    makes an empty schedule bit-identical to an unwrapped run.
    """
    affected = schedule.affected_ranks()

    def build(rank: int) -> Program:
        inner = factory(rank)
        if rank not in affected:
            return inner
        return _inject(inner, rank, schedule, flops_per_second[rank], injector)

    return build


def _inject(
    inner: Program,
    rank: int,
    schedule: FaultSchedule,
    rate: float,
    injector: FaultInjector,
) -> Program:
    """The per-rank wrapper generator (see module docstring)."""
    slowdowns = schedule.slowdowns(rank)
    crashes = schedule.crashes(rank)
    breakpoints = sorted({
        x for s in slowdowns for x in (s.onset, s.until) if x != math.inf
    })

    t = 0.0
    crash_idx = 0
    started = False
    send_value: Any = None
    pending_op: Any = None

    def factor_at(now: float) -> float:
        factor = 1.0
        for s in slowdowns:
            if s.onset <= now < s.until:
                factor *= s.factor
        return factor

    def next_boundary(now: float) -> float:
        bound = math.inf
        for x in breakpoints:
            if x > now:
                bound = x
                break
        if crash_idx < len(crashes):
            bound = min(bound, crashes[crash_idx].at)
        return bound

    def throw_failstop(crash: Any) -> Any:
        """Throw RankFailedError into the program; return the op it yields
        if it survives, else raise _RankDead."""
        injector.mark_failed(rank, t)
        injector.record(
            t, rank, "crash", f"scheduled_at={crash.at:g} failstop=1"
        )
        try:
            return inner.throw(RankFailedError(rank, t))
        except RankFailedError as exc:
            raise _RankDead(None) from exc
        except StopIteration as stop:
            raise _RankDead(stop.value) from stop

    def drain_crashes():
        """Handle every crash due at or before the local clock.

        Yields downtime for crash-restart events; returns the program's
        next op when a fail-stop throw was caught (None otherwise).
        """
        nonlocal crash_idx, t
        while crash_idx < len(crashes) and crashes[crash_idx].at <= t:
            crash = crashes[crash_idx]
            crash_idx += 1
            if crash.is_failstop:
                return throw_failstop(crash)
            injector.record(
                t, rank, "crash",
                f"scheduled_at={crash.at:g} "
                f"restart_delay={crash.restart_delay:g} "
                f"recompute={crash.recompute_seconds:g}",
            )
            downtime = crash.downtime
            injector.add_downtime(rank, downtime)
            if downtime > 0:
                yield Compute(seconds=downtime)
                t += downtime
            injector.record(t, rank, "restart", f"downtime={downtime:g}")
        return None

    def crashes_due() -> bool:
        return crash_idx < len(crashes) and crashes[crash_idx].at <= t

    try:
        while True:
            if pending_op is not None:
                op, pending_op = pending_op, None
            else:
                try:
                    if started:
                        op = inner.send(send_value)
                    else:
                        op = next(inner)
                        started = True
                except StopIteration as stop:
                    return stop.value
                send_value = None

            cls = type(op)
            if cls is Compute:
                if op.flops is not None:
                    remaining = op.flops
                    if remaining <= 0:
                        yield op
                        continue
                    while remaining > 0:
                        if crashes_due():
                            pending_op = yield from drain_crashes()
                            if pending_op is not None:
                                break  # program survived a fail-stop throw
                            continue
                        factor = factor_at(t)
                        bound = next_boundary(t)
                        rate_eff = rate * factor
                        capacity = (bound - t) * rate_eff
                        if remaining <= capacity:
                            if factor == 1.0:
                                # Forward untouched so the engine charges
                                # the exact same duration (and flops stats)
                                # as an unfaulted run would.
                                yield Compute(flops=remaining)
                                t += remaining / rate
                            else:
                                dt = remaining / rate_eff
                                yield Compute(flops=remaining, seconds=dt)
                                t += dt
                            remaining = 0.0
                        else:
                            yield Compute(flops=capacity, seconds=bound - t)
                            remaining -= capacity
                            t = bound
                else:
                    remaining = op.seconds
                    while True:
                        if crashes_due():
                            pending_op = yield from drain_crashes()
                            if pending_op is not None:
                                break
                            continue
                        if (
                            crash_idx < len(crashes)
                            and crashes[crash_idx].at < t + remaining
                        ):
                            dt = crashes[crash_idx].at - t
                            yield Compute(seconds=dt)
                            t += dt
                            remaining -= dt
                            continue
                        if remaining > 0:
                            yield Compute(seconds=remaining)
                            t += remaining
                        break
                if pending_op is not None:
                    continue  # abandoned compute: process the thrown-to op
            elif cls is Recv:
                msg = yield op
                if msg is None:  # timeout expired
                    t += op.timeout
                else:
                    t = max(t, msg.arrival)
                send_value = msg
                if crashes_due():
                    pending_op = yield from drain_crashes()
                    if pending_op is not None:
                        send_value = None  # message consumed by the crash
            elif cls is Send or cls is Multicast:
                yield op
                t = yield Now()  # resync: the network decided sender_done
                if crashes_due():
                    pending_op = yield from drain_crashes()
            elif cls is Now:
                t = yield op
                send_value = t
                if crashes_due():
                    pending_op = yield from drain_crashes()
                    if pending_op is not None:
                        send_value = None
            elif cls is Log:
                send_value = yield op
            else:
                # Unknown op: forward blindly; the engine will complain.
                send_value = yield op
    except _RankDead as dead:
        return dead.value
