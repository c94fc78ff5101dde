"""Lightweight labelled metrics: counters, gauges and fixed-bucket histograms.

:func:`run_metrics` builds a :class:`MetricsRegistry` once, after a run,
from its tracer's records and its :class:`~repro.sim.engine.RunResult`:

* per-rank, per-kind operation counters (``sim_ops_total``, ``sim_bytes_total``,
  ``sim_flops_total``),
* fixed-bucket histograms of operation durations and message sizes
  (``sim_op_seconds``, ``sim_message_bytes``), and
* engine self-profile gauges measured in *wall-clock* time
  (``engine_events_per_second``, ``engine_heap_pushes``,
  ``engine_stale_pop_ratio``, ...).

Everything is plain Python with no external dependencies; ``to_dict`` /
``to_json`` produce the stable document written to ``metrics.json`` by the
``repro profile`` CLI command.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from typing import Any, Iterator, Mapping

from ..sim.trace import record_volume

#: Default histogram boundaries for durations in (virtual) seconds.
DURATION_BUCKETS: tuple[float, ...] = (
    1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0
)

#: Default histogram boundaries for message sizes in bytes.
BYTES_BUCKETS: tuple[float, ...] = (
    64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0,
    262144.0, 1048576.0, 4194304.0, 16777216.0
)

LabelKey = tuple[tuple[str, Any], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    """Canonical hashable form of a label set."""
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"Counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A value that can be set to an arbitrary level."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self.value = float(value)


class Histogram:
    """Fixed-boundary histogram (cumulative-free, Prometheus-style buckets).

    ``boundaries`` are upper bucket edges; an observation lands in the first
    bucket whose edge is ``>= value``, with one implicit overflow bucket, so
    ``counts`` has ``len(boundaries) + 1`` entries.

    Non-finite observations never poison the finite statistics: ``+inf``
    lands in the overflow bucket and increments :attr:`count` but is kept
    out of :attr:`sum` (one ``inf`` would otherwise destroy the mean
    forever), while ``NaN`` and ``-inf`` — which carry no usable
    magnitude — are diverted to the :attr:`invalid` counter and excluded
    from buckets, count and sum entirely.
    """

    __slots__ = ("boundaries", "counts", "count", "sum", "invalid", "_inf")

    def __init__(self, boundaries: tuple[float, ...] = DURATION_BUCKETS):
        if not boundaries:
            raise ValueError("Histogram needs at least one bucket boundary")
        if list(boundaries) != sorted(boundaries):
            raise ValueError("Histogram boundaries must be sorted ascending")
        self.boundaries = tuple(float(b) for b in boundaries)
        self.counts = [0] * (len(boundaries) + 1)
        self.count = 0
        self.sum = 0.0
        self.invalid = 0
        self._inf = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        if math.isfinite(value):
            self.counts[bisect_left(self.boundaries, value)] += 1
            self.count += 1
            self.sum += value
        elif value == math.inf:
            self.counts[-1] += 1
            self.count += 1
            self._inf += 1
        else:  # NaN or -inf
            self.invalid += 1

    @property
    def mean(self) -> float:
        """Mean of the finite observations (0 when there are none)."""
        finite = self.count - self._inf
        return self.sum / finite if finite else 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly snapshot of the histogram."""
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "invalid": self.invalid,
        }


class MetricsRegistry:
    """Get-or-create store of labelled counters, gauges and histograms.

    Instruments are identified by ``(name, labels)``; labels are arbitrary
    keyword arguments (:func:`run_metrics` uses ``rank=`` and ``kind=``).
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}

    # -- instrument access -------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        key = (name, _label_key(labels))
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter()
        return inst

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        key = (name, _label_key(labels))
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge()
        return inst

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DURATION_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use.

        ``buckets`` only applies at creation; later calls return the
        existing instrument unchanged.
        """
        key = (name, _label_key(labels))
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(buckets)
        return inst

    # -- introspection -----------------------------------------------------
    def __iter__(self) -> Iterator[tuple[str, dict[str, Any], Any]]:
        """Yield ``(name, labels, instrument)`` for every instrument."""
        for store in (self._counters, self._gauges, self._histograms):
            for (name, key), inst in store.items():
                yield name, dict(key), inst

    def value(self, name: str, **labels: Any) -> float:
        """Current value of a counter or gauge (0 when absent)."""
        key = (name, _label_key(labels))
        inst = self._counters.get(key) or self._gauges.get(key)
        return inst.value if inst is not None else 0.0

    def to_dict(self) -> dict[str, Any]:
        """Snapshot of every instrument, grouped by instrument type."""

        def entry(name: str, key: LabelKey, payload: Any) -> dict[str, Any]:
            return {"name": name, "labels": dict(key), **payload}

        return {
            "counters": [
                entry(name, key, {"value": c.value})
                for (name, key), c in sorted(self._counters.items())
            ],
            "gauges": [
                entry(name, key, {"value": g.value})
                for (name, key), g in sorted(self._gauges.items())
            ],
            "histograms": [
                entry(name, key, h.to_dict())
                for (name, key), h in sorted(self._histograms.items())
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        """The :meth:`to_dict` snapshot serialized as JSON."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def run_metrics(tracer: Any, result: Any) -> MetricsRegistry:
    """The per-op metrics and engine gauges of a finished run.

    Walks the tracer's stored engine records once (``fault`` annotations
    are not engine operations and are skipped) and reads the wall-clock
    self-profile off the :class:`~repro.sim.engine.RunResult`.  Records
    past the tracer's limit are not counted; ``tracer.dropped`` says how
    many.
    """
    registry = MetricsRegistry()
    for rec in tracer.raw_records():
        rank, kind = rec[0], rec[1]
        if kind == "fault":
            continue
        nbytes, flops = record_volume(rec)
        registry.counter("sim_ops_total", rank=rank, kind=kind).inc()
        registry.histogram("sim_op_seconds", rank=rank, kind=kind).observe(
            rec[3] - rec[2]
        )
        if nbytes:
            registry.counter(
                "sim_bytes_total", rank=rank, kind=kind
            ).inc(nbytes)
            registry.histogram(
                "sim_message_bytes", buckets=BYTES_BUCKETS, kind=kind
            ).observe(nbytes)
        if flops:
            registry.counter("sim_flops_total", rank=rank).inc(flops)
    for name, value in (
        ("engine_events", result.events),
        ("engine_wall_seconds", result.wall_seconds),
        ("engine_events_per_second", result.events_per_second),
        ("engine_heap_pushes", result.heap_pushes),
        ("engine_stale_pops", result.stale_pops),
        ("engine_heap_pops", result.heap_pops),
        ("engine_stale_pop_ratio", result.stale_pop_ratio),
        ("engine_makespan_seconds", result.makespan),
    ):
        registry.gauge(name).set(value)
    return registry
