"""Exception types for the fault-injection subsystem."""

from __future__ import annotations

from ..sim.errors import SimulationError


class FaultError(SimulationError):
    """Base class for fault-injection errors."""


class RankFailedError(FaultError):
    """Raised *into* a simulated process when its node crashes fail-stop.

    The injector throws this exception at the victim's current yield point
    (the generator's suspended ``yield``).  A resilient program may catch it
    and degrade gracefully; an uncaught ``RankFailedError`` terminates the
    rank at the crash time (the injector absorbs it, so the run itself
    completes and the rank simply stops participating).
    """

    def __init__(self, rank: int, at: float):
        self.rank = rank
        self.at = at
        super().__init__(f"rank {rank} failed at t={at:g}s")


class FaultScheduleError(FaultError):
    """Raised for structurally invalid fault schedules or events."""
