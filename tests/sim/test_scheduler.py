"""Scheduler-layer invariants: pop order, seq stamps, heap size.

For any interleaving of pushes and pops the scheduler must pop entries in
exactly the order a plain heap would (sorted by ``(time, seq)``), because
the engine's conservative invariant — always advance the smallest local
clock — and the run's bit-identity both ride on it.  The engine's own
direct-resume path (the yielding rank resumed without a queue round trip)
is pinned by ``tests/sim/test_engine.py``.
"""

import heapq
import itertools
import random

import pytest

from repro.sim.scheduler import Scheduler


class FakeProc:
    __slots__ = ("time", "rank", "resume_seq")

    def __init__(self, time, rank):
        self.time = time
        self.rank = rank
        self.resume_seq = -1


def test_pop_order_matches_sorted_entries():
    sched = Scheduler()
    times = [3.0, 1.0, 2.0, 1.0, 0.5]
    for rank, t in enumerate(times):
        sched.push_resume(FakeProc(t, rank))
    popped = [sched.pop() for _ in range(len(times))]
    assert popped == sorted(popped)
    # Equal times resolve by push seq: ranks 1 then 3 for the two 1.0s.
    assert [r for (_, _, r) in popped] == [4, 1, 3, 2, 0]


def test_resume_seq_stamps_are_unique_and_returned():
    sched = Scheduler()
    a, b = FakeProc(1.0, 0), FakeProc(1.0, 1)
    sched.push_resume(a)
    sched.push_resume(b)
    assert {a.resume_seq, b.resume_seq} == {0, 1}
    dl = sched.push_deadline(5.0, 0)
    assert dl == 2
    assert sched.pushes == 3 == sched.seq


def test_interleaved_push_pop_equals_reference_heap():
    # Drive a Scheduler and a plain heapq with the same randomized
    # push/pop schedule; every pop must agree.  Randomized but seeded —
    # the point is covering time ties between resume and deadline pushes.
    rng = random.Random(1234)
    for trial in range(50):
        sched = Scheduler()
        ref: list = []
        seq = itertools.count()
        live = 0
        for _ in range(200):
            if live and rng.random() < 0.45:
                assert sched.pop() == heapq.heappop(ref)
                live -= 1
            else:
                t = rng.choice([0.0, 0.5, 1.0, 2.0, rng.random() * 10])
                if rng.random() < 0.5:
                    sched.push_resume(FakeProc(t, live))
                else:
                    sched.push_deadline(t, live)
                heapq.heappush(ref, (t, next(seq), live))
                live += 1
        while live:
            assert sched.pop() == heapq.heappop(ref)
            live -= 1
        assert not sched
        assert len(sched) == 0


def test_pending_slot_preserves_order_when_displaced():
    # Push descending times: each new entry becomes the heap minimum,
    # ahead of every entry pushed before it.
    sched = Scheduler()
    for rank, t in enumerate([5.0, 4.0, 3.0]):
        sched.push_resume(FakeProc(t, rank))
    assert len(sched) == 3
    assert [sched.pop()[2] for _ in range(3)] == [2, 1, 0]


def test_pop_empty_raises_indexerror():
    sched = Scheduler()
    with pytest.raises(IndexError):
        sched.pop()
    p = FakeProc(1.0, 0)
    sched.push_resume(p)
    sched.pop()
    with pytest.raises(IndexError):
        sched.pop()


def test_len_and_bool_count_pending_slot():
    sched = Scheduler()
    assert not sched
    sched.push_resume(FakeProc(1.0, 0))  # the heap minimum
    assert sched
    assert len(sched) == 1
    sched.push_resume(FakeProc(2.0, 1))  # queued behind it
    assert len(sched) == 2
