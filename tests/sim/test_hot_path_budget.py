"""Deterministic hot-path budget: Python frames entered per simulated event.

Wall-clock throughput is noisy on shared machines; the number of Python
frames the engine enters per event is not.  ``sys.settrace`` reports a
``call`` event for every frame entered, generator resumes included (each
level of a ``yield from`` chain counts), so ``calls / RunResult.events``
is an exact, reproducible measure of the per-event interpreter work on the
paper's hot path: GE on the Sunwulf bus configuration.

The budget is the value measured when the run loop began re-queueing the
yielding rank itself (6.5162 frames/event, rounded up at the second
decimal).  A change that adds a frame to every event — a helper call in a
handler, a scheduler method on the resume path — pushes the ratio past it.
Lowering the ratio is always fine; tighten the budget when it drops.
"""

from __future__ import annotations

import gc
import sys

from repro.experiments.runner import run_app
from repro.machine.sunwulf import ge_configuration

#: Upper bound on ``sys.settrace`` call events per engine event.
FRAMES_PER_EVENT_BUDGET = 6.52

_NODES = 8
_N = 200


def _traced_run():
    """Run GE once untraced (imports and caches warm), then once under a
    call-counting tracer; returns ``(run, calls)``."""
    run_app("ge", ge_configuration(_NODES), _N)
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
        record = run_app("ge", ge_configuration(_NODES), _N)
    finally:
        sys.settrace(previous)
        gc.enable()
    return record.run, calls


def test_frames_per_event_within_budget():
    run, calls = _traced_run()
    # The workload itself is pinned, so the ratio compares like with like.
    assert run.events == 14540
    assert run.heap_pushes == 14549
    assert run.makespan.hex() == "0x1.7edfa39ab1680p-2"
    frames_per_event = calls / run.events
    assert frames_per_event <= FRAMES_PER_EVENT_BUDGET, (
        f"{frames_per_event:.4f} frames/event exceeds the hot-path budget "
        f"of {FRAMES_PER_EVENT_BUDGET}"
    )
