"""Deterministic hot-path budget: Python frames entered per simulated event.

Wall-clock throughput is noisy on shared machines; the number of Python
frames the engine enters per event is not.  ``sys.settrace`` reports a
``call`` event for every frame entered, generator resumes included (each
level of a ``yield from`` chain counts), so ``calls / RunResult.events``
is an exact, reproducible measure of the per-event interpreter work.
Two workloads are pinned:

* the paper's hot path: GE on the Sunwulf bus configuration; its budget
  is the value measured when the ``Send`` handler began queueing a woken
  receiver inline and the ``Recv`` handler began skipping the mailbox
  match for an empty index (5.7431 frames/event, down from 6.5151,
  rounded up at the second decimal);
* the large-rank path: a ring halo exchange over 10^4 ranks on the
  tiered network (5.3348 frames/event since the same change, down from
  5.6680, rounded up likewise), which puts the hierarchical network's
  ``transfer`` on every send.

A change that adds a frame to every event — a helper call in a handler,
a scheduler method on the resume path, a wrapper in a network model —
pushes the ratio past its budget.  Lowering the ratio is always fine;
tighten the budget when it drops.

The flight recorder is always-on instrumentation: its hot-path entry
point is the ring's C-level ``deque.append``, so attaching it must add
no per-event frame.  Its wall-clock cost is measured by
``benchmarks/bench_flight_overhead.py``.
"""

from __future__ import annotations

import gc
import sys

from repro.experiments.runner import run_app
from repro.machine.sunwulf import ge_configuration
from repro.network.hierarchy import TieredNetwork
from repro.network.topology import Topology
from repro.sim.engine import Engine
from repro.sim.events import Compute, Recv, Send
from repro.sim.flight import FlightRecorder

#: Upper bound on ``sys.settrace`` call events per engine event.
FRAMES_PER_EVENT_BUDGET = 5.75

#: The same bound for the 10^4-rank tiered ring.
RING_FRAMES_PER_EVENT_BUDGET = 5.34

#: Frames a flight-recorded run may enter beyond the bare run: the
#: once-per-run watchdog in ``run_complete``, far below one per event.
FLIGHT_EXTRA_FRAMES_BUDGET = 100

_NODES = 8
_N = 200

_RING_RANKS = 10_000


def _count_frames(run_once):
    """Call ``run_once`` untraced (imports and caches warm), then once
    under a call-counting tracer; returns ``(its result, calls)``."""
    run_once()
    calls = 0

    def tracer(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1
        return None  # no per-line tracing inside the frame

    previous = sys.gettrace()
    gc.collect()
    gc.disable()  # no finalizer frames in the count
    sys.settrace(tracer)
    try:
        result = run_once()
    finally:
        sys.settrace(previous)
        gc.enable()
    return result, calls


def _ge_run(**kwargs):
    return run_app("ge", ge_configuration(_NODES), _N, **kwargs).run


def _ring_program(rank):
    """One ring halo-exchange step: compute, send right, recv left."""
    yield Compute(flops=1e4)
    yield Send((rank + 1) % _RING_RANKS, 1024.0, tag=0)
    yield Recv(src=(rank - 1) % _RING_RANKS, tag=0)


def _assert_within(run, calls, budget):
    frames_per_event = calls / run.events
    assert frames_per_event <= budget, (
        f"{frames_per_event:.4f} frames/event exceeds the hot-path budget "
        f"of {budget}"
    )


def test_frames_per_event_within_budget():
    run, calls = _count_frames(_ge_run)
    # The workload itself is pinned, so the ratio compares like with like.
    assert run.events == 14540
    assert run.heap_pushes == 14549
    assert run.makespan.hex() == "0x1.7edfa39ab1680p-2"
    _assert_within(run, calls, FRAMES_PER_EVENT_BUDGET)


def test_tiered_ring_frames_per_event_within_budget():
    # The topology's per-rank tables are built untraced: one frame per
    # rank there would say nothing about the per-event cost.
    topo = Topology.rack_blocks(_RING_RANKS, 4, 8, 4)
    run, calls = _count_frames(
        lambda: Engine(
            _RING_RANKS, TieredNetwork(topo), [1e9] * _RING_RANKS
        ).run(_ring_program)
    )
    assert run.events == 30000
    assert run.heap_pushes == 40000
    assert run.makespan.hex() == "0x1.7a8f2a338077fp-12"
    _assert_within(run, calls, RING_FRAMES_PER_EVENT_BUDGET)


def test_flight_recorder_adds_no_frame_per_event():
    bare, bare_calls = _count_frames(_ge_run)
    flown, flight_calls = _count_frames(
        lambda: _ge_run(flight=FlightRecorder())
    )
    assert flown.events == bare.events
    extra = flight_calls - bare_calls
    assert extra <= FLIGHT_EXTRA_FRAMES_BUDGET, (
        f"the flight recorder adds {extra} frames to a "
        f"{bare.events}-event run (budget {FLIGHT_EXTRA_FRAMES_BUDGET})"
    )
