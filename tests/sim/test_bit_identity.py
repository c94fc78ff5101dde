"""Bit-identity of the layered engine against committed golden fixtures.

The scheduler / mailbox / dispatch refactor of :mod:`repro.sim` must be
*observationally identical* to the monolithic engine it replaced: makespan,
per-rank :class:`~repro.sim.trace.RankStats`, derived speed-efficiency
(the metric every paper table is built from), event counts and scheduler
accounting all reproduce exactly — for every application, on heterogeneous
clusters, with and without an active fault schedule.

The fixture (``golden_runs.json``) was generated from the pre-refactor
engine and is committed; any semantic drift in the engine layers shows up
here as an exact-value mismatch.  Regenerate only when an *intentional*
semantics change is made::

    PYTHONPATH=src python tests/sim/test_bit_identity.py --regen
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.faults import (
    FaultSchedule,
    LinkDegradation,
    NodeSlowdown,
    make_fault_launcher,
)
from repro.experiments.runner import run_app
from repro.machine.presets import mixed_pairs
from repro.machine.sunwulf import ge_configuration
from repro.obs import run_metrics
from repro.sim.flight import FlightRecorder
from repro.sim.trace import Tracer

FIXTURE = Path(__file__).parent / "golden_runs.json"

#: A schedule exercising both injection layers: program wrapping (the
#: slowdown segments rank 1's Compute ops) and FaultyNetworkModel (the
#: degradation stretches every transfer's bandwidth and latency).
_SCHEDULE = FaultSchedule(
    (
        NodeSlowdown(rank=1, onset=0.0, duration=None, severity=0.5),
        LinkDegradation(
            onset=0.0, duration=None, bandwidth_factor=0.5, latency_factor=2.0
        ),
    )
)

#: (case-id, app, cluster factory, N, faulted)
CASES = [
    ("ge-mixed4", "ge", lambda: mixed_pairs(2), 96, False),
    ("mm-mixed4", "mm", lambda: mixed_pairs(2), 64, False),
    ("fft-mixed4", "fft", lambda: mixed_pairs(2), 64, False),
    ("stencil-mixed4", "stencil", lambda: mixed_pairs(2), 32, False),
    ("ge-sunwulf6", "ge", lambda: ge_configuration(6), 128, False),
    ("ge-mixed4-faults", "ge", lambda: mixed_pairs(2), 96, True),
    ("mm-mixed4-faults", "mm", lambda: mixed_pairs(2), 64, True),
    ("fft-mixed4-faults", "fft", lambda: mixed_pairs(2), 64, True),
    ("stencil-mixed4-faults", "stencil", lambda: mixed_pairs(2), 32, True),
]

_STAT_FIELDS = (
    "compute_time",
    "send_time",
    "recv_wait_time",
    "bytes_sent",
    "bytes_received",
    "messages_sent",
    "messages_received",
    "messages_lost",
    "flops",
    "finish_time",
)


def _run(app: str, cluster_factory, n: int, faulted: bool, **sinks):
    """Run one case with ``sinks`` attached; returns its record."""
    kwargs = dict(sinks)
    if faulted:
        kwargs["launcher"] = make_fault_launcher(_SCHEDULE)
    return run_app(app, cluster_factory(), n, **kwargs)


def _collect(
    app: str, cluster_factory, n: int, faulted: bool, **sinks
) -> dict:
    return _flatten(_run(app, cluster_factory, n, faulted, **sinks))


def _flatten(record) -> dict:
    """Every identity-relevant observation of a run record, flattened."""
    run = record.run
    return {
        "makespan": run.makespan,
        "speed_efficiency": record.speed_efficiency,
        "events": run.events,
        "undelivered_messages": run.undelivered_messages,
        "heap_pushes": run.heap_pushes,
        "heap_pops": run.heap_pops,
        "stale_pops": run.stale_pops,
        "finish_times": list(run.finish_times),
        "stats": [
            {name: getattr(s, name) for name in _STAT_FIELDS}
            for s in run.stats
        ],
    }


@pytest.mark.parametrize(
    "case_id,app,cluster_factory,n,faulted",
    CASES,
    ids=[c[0] for c in CASES],
)
def test_engine_matches_golden_fixture(case_id, app, cluster_factory, n, faulted):
    golden = json.loads(FIXTURE.read_text())
    assert case_id in golden, (
        f"no golden entry for {case_id}; regenerate the fixture"
    )
    observed = _collect(app, cluster_factory, n, faulted)
    # Exact equality on purpose: the run is fully deterministic, and any
    # float drift means the refactored engine changed semantics.
    assert observed == golden[case_id]


#: Sink sets attached in the identity-neutrality test.  The flight-only
#: set keeps the bare case id; the others suffix it with the set name.
#: The ``metrics`` set is what ``repro profile`` attaches: a tracer whose
#: records feed :func:`~repro.obs.run_metrics` after the run.
SINK_SETS = {
    "flight": lambda: {"flight": FlightRecorder(capacity=64)},
    "tracer": lambda: {"tracer": Tracer()},
    "metrics": lambda: {"tracer": Tracer()},
    "all": lambda: {
        "tracer": Tracer(),
        "flight": FlightRecorder(capacity=1 << 20),
    },
}


def _records_seen(sink) -> int:
    """How many engine records ``sink`` received (a flight ring retains
    at most its capacity; fault-track records are not engine records)."""
    if isinstance(sink, FlightRecorder):
        return len(sink)
    engine_records = [r for r in sink.records if r.kind != "fault"]
    return len(engine_records) + sink.dropped


@lru_cache(maxsize=None)
def _engine_records(case_id: str) -> int:
    (_, app, cluster_factory, n, faulted), = (
        c for c in CASES if c[0] == case_id
    )
    tracer = Tracer()
    _collect(app, cluster_factory, n, faulted, tracer=tracer)
    return _records_seen(tracer)


@pytest.mark.parametrize(
    "case_id,app,cluster_factory,n,faulted,sink_set",
    [
        pytest.param(
            *case, sink_set,
            id=case[0] if sink_set == "flight" else f"{case[0]}-{sink_set}",
        )
        for sink_set in SINK_SETS
        for case in CASES
    ],
)
def test_flight_recorder_is_identity_neutral(
    case_id, app, cluster_factory, n, faulted, sink_set
):
    """Every sink set -- the flight recorder (ring + watchdog), a tracer,
    or both at once -- must be read-only.

    Sinks are called from inside the engine's handler closures, so this
    is the contract that keeps observation always-on-able: same golden
    values, byte for byte, with the sinks attached, and every attached
    sink sees every engine record (and the post-run metrics count each
    of them once, fault annotations excluded).
    """
    golden = json.loads(FIXTURE.read_text())
    sinks = SINK_SETS[sink_set]()
    record = _run(app, cluster_factory, n, faulted, **sinks)
    assert _flatten(record) == golden[case_id]
    expected = _engine_records(case_id)
    if sink_set == "metrics":
        metrics = run_metrics(sinks["tracer"], record.run)
        assert sum(
            inst.value for name, _, inst in metrics if name == "sim_ops_total"
        ) == expected
    for sink in sinks.values():
        if isinstance(sink, FlightRecorder):
            assert sink.dumps == []  # healthy runs: the watchdog stays quiet
            assert _records_seen(sink) == min(expected, sink.capacity)
        else:
            assert _records_seen(sink) == expected


def regen() -> None:
    golden = {
        case_id: _collect(app, factory, n, faulted)
        for case_id, app, factory, n, faulted in CASES
    }
    FIXTURE.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(golden)} cases)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regen()
    else:
        print(__doc__)
