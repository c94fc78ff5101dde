"""Byte-for-byte pins of what the record stores record and what is derived.

The golden fixtures (``golden_runs.json``) pin what a run *computes*; this
module pins what the attached record stores *see*.  For two programs -- a
GE run on a heterogeneous cluster (its native Ethernet broadcast exercises
multicast) and a hand-written 3-rank program yielding every record kind
(compute with and without ``seconds=``, send, recv, an expiring timed
receive, ``Log`` and a message lost in transit) plus a fault track -- the
committed fixture ``sink_outputs.json`` stores per-kind record counts and
a sha256 of each output:

* the Chrome trace events (:func:`repro.obs.chrome_trace_events`);
* the post-run metrics (:func:`repro.obs.run_metrics` over the tracer's
  records, ``to_dict()`` minus the two wall-clock gauges);
* ``FlightRecorder.render()``.

Each store is also attached alone, and must see exactly what it sees when
attached together with the other.  Regenerate only on an intentional
change to store or derived output::

    PYTHONPATH=src python tests/sim/test_sink_outputs.py --regen
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments.runner import run_app
from repro.faults import FaultInjector, FaultSchedule, LinkDegradation, NodeSlowdown
from repro.machine.presets import mixed_pairs
from repro.mpi import CollectiveConfig
from repro.obs import MetricsRegistry, chrome_trace_events, run_metrics
from repro.sim import Compute, Engine, Log, Recv, Send, Tracer
from repro.sim.flight import FlightRecorder

FIXTURE = Path(__file__).parent / "sink_outputs.json"

#: Gauges measured in wall-clock time: they differ between any two runs.
_WALL_GAUGES = {"engine_wall_seconds", "engine_events_per_second"}


class _LossyNetwork:
    """Latency + bandwidth cost; every message from rank 0 to rank 2 is
    lost in transit (``arrival == inf``)."""

    def transfer(self, src, dst, nbytes, start):
        done = start + 1e-3 + nbytes * 1e-6
        return done, (math.inf if (src, dst) == (0, 2) else done)


def _every_kind(rank):
    if rank == 0:
        yield Compute(flops=2e6)
        yield Compute(flops=1e6, seconds=0.25)
        yield Log("phase one")
        yield Send(1, 1024.0, tag=3)
        yield Send(2, 64.0, tag=9)  # lost in transit
        yield Compute(seconds=0.1)
        yield Recv(src=1, tag=4)
    elif rank == 1:
        yield Recv(src=0, tag=3)
        assert (yield Recv(src=0, tag=5, timeout=0.5)) is None
        yield Send(0, 16.0, tag=4)
    else:
        assert (yield Recv(src=0, tag=9, timeout=1.0)) is None
        yield Log("gave up")


def _run_every_kind(**sinks):
    engine = Engine(3, _LossyNetwork(), [1e6, 2e6, 1e6], **sinks)
    return engine.run(_every_kind)


def _run_ge(**sinks):
    return run_app(
        "ge", mixed_pairs(2), 48,
        collectives=CollectiveConfig(bcast="ethernet"), **sinks,
    ).run


def _fault_track(tracer: Tracer) -> None:
    injector = FaultInjector(FaultSchedule((
        NodeSlowdown(rank=1, onset=0.0, duration=None, severity=0.5),
        LinkDegradation(onset=0.1, duration=0.2, bandwidth_factor=0.5,
                        latency_factor=2.0),
    )))
    injector.record_loss(0, 2, 64.0, 0.35)
    injector.annotate_tracer(tracer)


PROGRAMS = {"ge-mixed4": _run_ge, "every-kind": _run_every_kind}


def _sha(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _metrics_doc(registry: MetricsRegistry) -> dict:
    doc = registry.to_dict()
    doc["gauges"] = [g for g in doc["gauges"] if g["name"] not in _WALL_GAUGES]
    return doc


def _observe(name: str) -> dict:
    """Run program ``name`` with both record stores; return the pinned
    observations (and check each lone store against the fan-out)."""
    run = PROGRAMS[name]
    tracer = Tracer()
    flight = FlightRecorder(capacity=100_000)
    result = run(tracer=tracer, flight=flight)
    assert flight.dumps == []
    counts = dict(Counter(rec.kind for rec in tracer.records))
    assert len(flight) == len(tracer)
    metrics = _metrics_doc(run_metrics(tracer, result))
    if name == "every-kind":
        _fault_track(tracer)
        counts["fault"] = len(tracer) - len(flight)
        # Fault annotations are not engine operations.
        assert _metrics_doc(run_metrics(tracer, result)) == metrics

    lone_tracer = Tracer()
    run(tracer=lone_tracer)
    if name == "every-kind":
        _fault_track(lone_tracer)
    assert lone_tracer.records == tracer.records
    lone_flight = FlightRecorder(capacity=100_000)
    run(flight=lone_flight)
    assert lone_flight.raw_records() == flight.raw_records()
    return {
        "counts": counts,
        "chrome_trace": _sha(chrome_trace_events(tracer)),
        "metrics": _sha(metrics),
        "flight": _sha(flight.render()),
    }


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_sink_outputs_match_fixture(name):
    golden = json.loads(FIXTURE.read_text())
    assert _observe(name) == golden[name]


def test_every_kind_program_covers_every_record_kind():
    golden = json.loads(FIXTURE.read_text())
    assert set(golden["every-kind"]["counts"]) == {
        "compute", "send", "recv", "recv-timeout", "log", "fault",
    }
    assert golden["ge-mixed4"]["counts"].get("multicast", 0) > 0


def regen() -> None:
    golden = {name: _observe(name) for name in sorted(PROGRAMS)}
    FIXTURE.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(golden)} programs)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regen()
    else:
        print(__doc__)
