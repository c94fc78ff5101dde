"""Scheduler layer: the engine's time-ordered run queue.

The :class:`Scheduler` is a ``(virtual time, seq, rank)`` min-heap plus a
seq counter.  The engine pops it to always advance the runnable process
with the smallest local clock (the conservative invariant).

* The monotonically increasing ``seq`` stamp breaks time ties in stamp
  order and identifies *live* entries: a process records the seq of its
  current resume entry (``resume_seq``) and of a pending receive-timeout
  entry (``deadline_seq``); popped entries matching neither are stale and
  are skipped (the engine counts them as it pops).
* ``pushes`` counts seq stamps.  The run loop re-queues the rank that
  just yielded itself and stamps a seq even when it resumes that rank at
  once (still the strict minimum), so the counts equal a pure heap's.

:meth:`push_resume` and :meth:`push_deadline` queue *other* ranks: a
receive completed by a sender, a receive timeout.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any

#: One run-queue entry: (virtual time, push seq, rank).
Entry = tuple[float, int, int]


class Scheduler:
    """Min-heap run queue with a seq counter for stale-entry bookkeeping."""

    __slots__ = ("heap", "seq")

    def __init__(self) -> None:
        self.heap: list[Entry] = []
        self.seq = 0

    def __len__(self) -> int:
        return len(self.heap)

    @property
    def pushes(self) -> int:
        """Entries pushed so far (== seq stamps consumed)."""
        return self.seq

    def push_resume(self, proc: Any) -> None:
        """Queue ``proc`` (anything with ``time``/``rank``/``resume_seq``)
        to resume at its current clock; stamps ``proc.resume_seq`` so the
        entry is recognized as live when popped."""
        s = self.seq
        self.seq = s + 1
        proc.resume_seq = s
        heappush(self.heap, (proc.time, s, proc.rank))

    def push_deadline(self, time: float, rank: int) -> int:
        """Queue a receive-timeout wakeup for ``rank`` at ``time``; returns
        the entry's seq for the process's ``deadline_seq`` bookkeeping."""
        s = self.seq
        self.seq = s + 1
        heappush(self.heap, (time, s, rank))
        return s

    def pop(self) -> Entry:
        """Remove and return the globally earliest entry.

        Raises :class:`IndexError` when empty (the engine turns that into
        a :class:`~repro.sim.errors.DeadlockError` with context).
        """
        return heappop(self.heap)
