"""Discrete-event simulation substrate.

This package provides the conservative virtual-time engine that every
simulated "execution" in the reproduction runs on: processes are Python
generators yielding :class:`~repro.sim.events.Compute`,
:class:`~repro.sim.events.Send`, :class:`~repro.sim.events.Recv` and friends,
and :class:`~repro.sim.engine.Engine` coordinates their virtual clocks over a
pluggable network model.

The engine itself is layered: a :class:`~repro.sim.scheduler.Scheduler`
(time-ordered run queue), a :class:`~repro.sim.mailbox.MailboxSet`
(per-``(src, tag)`` indexed message matching), a fixed op table in
:mod:`repro.sim.engine` mapping each primitive's exact type to its
handler, and one observation stream: handlers pass each raw record
tuple ``(rank, kind, start, end, *extras)`` (layout in
:mod:`repro.sim.trace`) to the engine's two record stores, a
first-K :class:`~repro.sim.trace.Tracer` and a last-K
:class:`~repro.sim.flight.FlightRecorder`.  Metrics, Chrome traces and
the critical path are derived from the stored records after the run.
"""

from .engine import Engine, Program, ProgramFactory, RunContext, RunResult
from .flight import FlightRecorder, WatchdogConfig
from .errors import (
    DeadlockError,
    EventLimitExceeded,
    InvalidOperationError,
    ProtocolError,
    SimulationError,
)
from .events import ANY_SOURCE, ANY_TAG, Compute, Log, Message, Multicast, Now, Recv, Send, SimOp
from .mailbox import MailboxSet
from .scheduler import Scheduler
from .trace import RankStats, RankStatsArray, Tracer, TraceRecord

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Compute",
    "DeadlockError",
    "Engine",
    "EventLimitExceeded",
    "FlightRecorder",
    "InvalidOperationError",
    "Log",
    "MailboxSet",
    "Message",
    "Multicast",
    "Now",
    "Program",
    "ProgramFactory",
    "ProtocolError",
    "RankStats",
    "RankStatsArray",
    "Recv",
    "RunContext",
    "RunResult",
    "Scheduler",
    "Send",
    "SimOp",
    "SimulationError",
    "TraceRecord",
    "Tracer",
    "WatchdogConfig",
]
