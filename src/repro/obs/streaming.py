"""Bounded-memory streaming estimators for always-on observability.

Everything in this module is O(1) memory per metric stream, independent
of how many observations flow through it.  That is the property the
ROADMAP's million-rank item needs: the cost of *watching* a run must not
grow with ranks x events, or instrumentation gets turned off exactly at
the scales where the isospeed-efficiency question (PAPER.md) is
interesting.

Estimators
----------
* :class:`OnlineStats` — Welford mean/variance plus min/max.
* :class:`P2Quantile` — the Jain & Chlamtac P² (piecewise-parabolic)
  single-quantile estimator: five markers, no sample retention.  Exact
  for the first five observations, approximate afterwards (validated
  against exact sorted quantiles in ``tests/obs/test_streaming.py``).
* :class:`QuantileSketch` — a bundle of P² markers (p50/p90/p99 by
  default) sharing one :class:`OnlineStats`.
* :class:`RateMeter` — windowed events/s over explicit timestamps.
* :class:`StreamingGroupStats` — keyed :class:`OnlineStats`, usable
  as an engine ``metrics=`` sink (per-``(rank, kind)`` durations).
* :func:`summarize_rank_stats` — the rank-summary path: feeds per-rank
  utilization/idle/flops through the sketches and returns a plain-data
  block (quantiles + top-k busiest/idlest ranks) for ledger records and
  ``repro profile`` output.
* :class:`ProgressReporter` — the ``--progress`` heartbeat for
  :class:`~repro.experiments.executor.SweepExecutor`.

All estimators are deterministic for a fixed observation order, so
attaching them never perturbs the bit-identity contract of the engine.
"""

from __future__ import annotations

import heapq
import math
import sys
import time
from collections import deque
from typing import Any, Callable, Hashable, Iterable, Sequence, TextIO

__all__ = [
    "OnlineStats",
    "P2Quantile",
    "QuantileSketch",
    "RateMeter",
    "StreamingGroupStats",
    "summarize_rank_stats",
    "ProgressReporter",
]


class OnlineStats:
    """Welford online mean/variance with min/max, O(1) memory."""

    __slots__ = ("count", "mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def push(self, value: float) -> None:
        """Fold one observation into the running moments."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.push(value)

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator); 0.0 below two observations."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def to_dict(self) -> dict[str, float]:
        empty = self.count == 0
        return {
            "count": self.count,
            "mean": self.mean if not empty else 0.0,
            "std": self.std,
            "min": self.min if not empty else 0.0,
            "max": self.max if not empty else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OnlineStats(count={self.count}, mean={self.mean:g}, "
            f"std={self.std:g}, min={self.min:g}, max={self.max:g})"
        )


class P2Quantile:
    """P² single-quantile estimator (Jain & Chlamtac, CACM 1985).

    Maintains five markers whose heights track the quantile ``p`` of the
    stream.  The first five observations are stored exactly; afterwards
    marker heights are adjusted with the piecewise-parabolic (P²)
    formula, falling back to linear interpolation when the parabolic
    prediction would leave the bracketing markers.  Memory is O(1);
    :meth:`value` is exact until the fifth observation.
    """

    __slots__ = ("p", "count", "_q", "_n", "_np", "_dn")

    def __init__(self, p: float):
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {p}")
        self.p = p
        self.count = 0
        self._q: list[float] = []  # marker heights (first 5 obs verbatim)
        # Marker positions, desired positions, and desired increments
        # (1-based, as in the paper) — populated on the fifth observation.
        self._n: list[float] = []
        self._np: list[float] = []
        self._dn = (0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0)

    def push(self, value: float) -> None:
        """Fold one observation into the marker state."""
        value = float(value)
        self.count += 1
        q = self._q
        if self.count <= 5:
            q.append(value)
            q.sort()
            if self.count == 5:
                self._n = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._np = [1.0 + 4.0 * d for d in self._dn]
            return

        n = self._n
        # Locate the cell k with q[k] <= value < q[k+1], extending the
        # extreme markers when the observation falls outside them.
        if value < q[0]:
            q[0] = value
            k = 0
        elif value >= q[4]:
            if value > q[4]:
                q[4] = value
            k = 3
        else:
            k = 0
            while k < 3 and value >= q[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1.0
        np_ = self._np
        for i, d in enumerate(self._dn):
            np_[i] += d

        # Adjust the three interior markers toward their desired
        # positions, at most one position step per observation.
        for i in (1, 2, 3):
            d = np_[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                d <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                step = 1.0 if d > 0 else -1.0
                candidate = self._parabolic(i, step)
                if q[i - 1] < candidate < q[i + 1]:
                    q[i] = candidate
                else:
                    q[i] = self._linear(i, step)
                n[i] += step

    def _parabolic(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        j = i + int(d)
        return q[i] + d * (q[j] - q[i]) / (n[j] - n[i])

    def value(self) -> float:
        """Current quantile estimate (NaN before any observation)."""
        if self.count == 0:
            return math.nan
        q = self._q
        if self.count <= 5:
            # Exact: linear interpolation over the stored sorted sample.
            pos = self.p * (len(q) - 1)
            lo = int(pos)
            hi = min(lo + 1, len(q) - 1)
            frac = pos - lo
            return q[lo] + (q[hi] - q[lo]) * frac
        return q[2]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"P2Quantile(p={self.p}, count={self.count}, value={self.value():g})"


#: Default quantile set for sketches; matches the ledger rank-summary block.
DEFAULT_QUANTILES = (0.5, 0.9, 0.99)


class QuantileSketch:
    """A bundle of :class:`P2Quantile` markers over one stream.

    Tracks the configured quantiles (p50/p90/p99 by default) plus the
    Welford moments, all in O(1) memory.
    """

    __slots__ = ("stats", "_markers")

    def __init__(self, quantiles: Sequence[float] = DEFAULT_QUANTILES):
        self.stats = OnlineStats()
        self._markers = {p: P2Quantile(p) for p in quantiles}

    def push(self, value: float) -> None:
        self.stats.push(value)
        for marker in self._markers.values():
            marker.push(value)

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.push(value)

    def quantile(self, p: float) -> float:
        return self._markers[p].value()

    @property
    def count(self) -> int:
        return self.stats.count

    def to_dict(self) -> dict[str, float]:
        """Moments + quantiles, keyed ``p50``-style for JSON documents."""
        out = self.stats.to_dict()
        for p, marker in sorted(self._markers.items()):
            out[_quantile_key(p)] = marker.value() if marker.count else 0.0
        return out


def _quantile_key(p: float) -> str:
    """0.5 -> 'p50', 0.99 -> 'p99', 0.999 -> 'p99.9'."""
    pct = p * 100.0
    if pct == int(pct):
        return f"p{int(pct)}"
    return f"p{pct:g}"


class RateMeter:
    """Windowed event rate over explicit timestamps.

    Observations are ``(timestamp, count)`` pairs; :meth:`rate` reports
    events per second over the trailing ``window`` seconds.  Timestamps
    are supplied by the caller (``time.monotonic()`` by default) so the
    meter is deterministic under test.  Memory is bounded by the number
    of observations inside one window; old samples are pruned on every
    call.
    """

    __slots__ = ("window", "total", "_samples", "_clock")

    def __init__(
        self, window: float = 30.0, clock: Callable[[], float] | None = None
    ):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self.total = 0
        self._samples: deque[tuple[float, int]] = deque()
        self._clock = clock if clock is not None else time.monotonic

    def observe(self, count: int = 1, now: float | None = None) -> None:
        now = self._clock() if now is None else now
        self.total += count
        self._samples.append((now, count))
        self._prune(now)

    def _prune(self, now: float) -> None:
        cutoff = now - self.window
        samples = self._samples
        while samples and samples[0][0] < cutoff:
            samples.popleft()

    def rate(self, now: float | None = None) -> float:
        """Events per second over the trailing window (0.0 when idle)."""
        now = self._clock() if now is None else now
        self._prune(now)
        samples = self._samples
        if not samples:
            return 0.0
        count = sum(n for _, n in samples)
        span = now - samples[0][0]
        if span <= 0.0:
            # All observations share one instant: rate over the minimum
            # resolvable span rather than infinity.
            span = self.window
        return count / span

    def eta_seconds(self, remaining: float, now: float | None = None) -> float | None:
        """Seconds until ``remaining`` more events at the current rate."""
        rate = self.rate(now)
        if rate <= 0.0 or remaining < 0:
            return None
        return remaining / rate


class StreamingGroupStats:
    """Keyed :class:`OnlineStats` (optionally with quantile sketches).

    Implements the engine's sink contract (:meth:`append`) so it can be
    attached directly to a run as ``metrics=`` to aggregate
    per-``(rank, kind)`` operation durations without retaining any
    per-event record — the streaming replacement for a full
    :class:`~repro.sim.trace.Tracer` at scales where per-event lists are
    unaffordable.
    """

    __slots__ = ("groups", "quantiles")

    def __init__(self, quantiles: Sequence[float] | None = None):
        self.groups: dict[Hashable, Any] = {}
        self.quantiles = tuple(quantiles) if quantiles else ()

    def observe(self, key: Hashable, value: float) -> None:
        group = self.groups.get(key)
        if group is None:
            group = (
                QuantileSketch(self.quantiles) if self.quantiles else OnlineStats()
            )
            self.groups[key] = group
        group.push(value)

    def get(self, key: Hashable) -> Any:
        return self.groups.get(key)

    def append(self, rec: tuple) -> None:
        """Sink contract: observe one raw record's duration under
        ``(rank, kind)``."""
        self.observe((rec[0], rec[1]), rec[3] - rec[2])

    def to_dict(self) -> dict[str, dict[str, float]]:
        def _key(key: Hashable) -> str:
            if isinstance(key, tuple):
                return "/".join(str(part) for part in key)
            return str(key)

        return {
            _key(key): group.to_dict()
            for key, group in sorted(self.groups.items(), key=lambda kv: _key(kv[0]))
        }


def summarize_rank_stats(
    stats: Sequence[Any], makespan: float, top_k: int = 3
) -> dict[str, Any]:
    """Streaming rank summary: quantiles + top-k outliers, O(k) retained.

    Feeds per-rank utilization, idle seconds, and flops through
    :class:`QuantileSketch` (one pass, nothing materialized beyond the
    sketches and the two k-element top lists), so the summary cost is
    independent of rank count.  ``stats`` is any sequence with the
    :class:`~repro.sim.trace.RankStats` surface (``utilization``,
    ``idle_time``, ``flops``, ``rank``).

    Edge cases: a non-positive makespan (all-idle / zero-length run)
    reports utilization 0 and idle 0 for every rank without ever dividing
    by the makespan, and the busiest/idlest lists are always *disjoint* —
    with fewer than ``2 * top_k`` ranks the idlest list only draws from
    ranks not already listed as busiest, so a 1-rank run yields one
    busiest entry and no idlest entries rather than the same rank twice.
    """
    # Guard here rather than relying on each stat object's own guard:
    # ``stats`` may be any duck-typed sequence (e.g. rehydrated records).
    if makespan > 0:
        _util = lambda st: st.utilization(makespan)
        _idle = lambda st: st.idle_time(makespan)
    else:
        _util = lambda st: 0.0
        _idle = lambda st: 0.0

    utilization = QuantileSketch()
    idle = QuantileSketch()
    flops = QuantileSketch()
    for st in stats:
        utilization.push(_util(st))
        idle.push(_idle(st))
        flops.push(st.flops)

    k = max(0, min(top_k, len(stats)))
    busiest = heapq.nlargest(k, stats, key=_util)
    listed = {st.rank for st in busiest}
    idlest = heapq.nsmallest(
        k, (st for st in stats if st.rank not in listed), key=_util
    )

    def _rank_entry(st: Any) -> dict[str, float]:
        return {
            "rank": st.rank,
            "utilization": _util(st),
            "idle_seconds": _idle(st),
            "flops": st.flops,
        }

    return {
        "ranks": len(stats),
        "makespan": makespan,
        "utilization": utilization.to_dict(),
        "idle_seconds": idle.to_dict(),
        "flops": flops.to_dict(),
        "top_busiest": [_rank_entry(st) for st in busiest],
        "top_idlest": [_rank_entry(st) for st in idlest],
    }


class ProgressReporter:
    """Heartbeat for long sweeps: done/total, ETA, cache hits, workers.

    Attached to a :class:`~repro.experiments.executor.SweepExecutor`
    (``progress=``, surfaced as ``--progress`` on the sweep CLI
    commands).  The executor calls :meth:`begin` with the point count,
    :meth:`point_done` as each point lands (cache hits included), and
    :meth:`note_busy_seconds` with worker busy-phase span seconds from
    the PR 6 telemetry stream; the reporter prints a rate-limited
    heartbeat line to ``stream`` and mirrors each heartbeat into the
    structured log when one is attached.

    ETA comes from the :class:`RateMeter` window, so it tracks the
    *current* completion rate (cache-hit bursts and slow tail points
    shift it immediately) rather than the whole-run average.
    """

    __slots__ = (
        "stream", "interval", "log", "label", "total", "done", "hits",
        "_rate", "_clock", "_started", "_last_emit", "_busy_seconds",
        "_workers", "lines",
    )

    def __init__(
        self,
        stream: TextIO | None = None,
        interval: float = 1.0,
        log: Any = None,
        clock: Callable[[], float] | None = None,
        window: float = 30.0,
    ):
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self.log = log
        self.label = "sweep"
        self.total = 0
        self.done = 0
        self.hits = 0
        self._rate = RateMeter(window=window, clock=clock)
        self._clock = clock if clock is not None else time.monotonic
        self._started = 0.0
        self._last_emit = -math.inf
        self._busy_seconds = 0.0
        self._workers = 1
        self.lines = 0

    # -- executor-facing hooks ------------------------------------------
    def begin(self, total: int, label: str = "sweep", workers: int = 1) -> None:
        self.label = label
        self.total = total
        self.done = 0
        self.hits = 0
        self._busy_seconds = 0.0
        self._workers = max(1, workers)
        self._started = self._clock()
        self._last_emit = -math.inf
        self._emit(final=False)

    def point_done(self, hit: bool = False) -> None:
        now = self._clock()
        self.done += 1
        if hit:
            self.hits += 1
        self._rate.observe(1, now=now)
        if now - self._last_emit >= self.interval:
            self._emit(final=False, now=now)

    def note_busy_seconds(self, seconds: float) -> None:
        """Credit worker busy time (engine_run/serialize span seconds)."""
        self._busy_seconds += seconds

    def finish(self) -> None:
        self._emit(final=True)

    # -- derived quantities ---------------------------------------------
    @property
    def cache_hit_rate(self) -> float:
        return self.hits / self.done if self.done else 0.0

    def worker_utilization(self, now: float | None = None) -> float | None:
        """Busy-span seconds over workers x elapsed; None before data."""
        if self._busy_seconds <= 0.0:
            return None
        now = self._clock() if now is None else now
        elapsed = now - self._started
        if elapsed <= 0.0:
            return None
        return min(1.0, self._busy_seconds / (self._workers * elapsed))

    # -- emission --------------------------------------------------------
    def _emit(self, final: bool, now: float | None = None) -> None:
        now = self._clock() if now is None else now
        self._last_emit = now
        rate = self._rate.rate(now)
        eta = self._rate.eta_seconds(self.total - self.done, now)
        utilization = self.worker_utilization(now)

        parts = [f"[{self.label}] {self.done}/{self.total} points"]
        if self.total:
            parts[0] += f" ({self.done / self.total:.0%})"
        if rate > 0.0:
            parts.append(f"{rate:.2f} pt/s")
        if not final and eta is not None:
            parts.append(f"eta {_format_seconds(eta)}")
        if final:
            parts.append(f"elapsed {_format_seconds(now - self._started)}")
        if self.done:
            parts.append(f"cache {self.cache_hit_rate:.0%} hit")
        if utilization is not None:
            parts.append(f"workers {utilization:.0%} busy")
        line = " | ".join(parts)
        print(line, file=self.stream, flush=True)
        self.lines += 1

        if self.log is not None:
            self.log.event(
                "sweep.progress",
                label=self.label,
                done=self.done,
                total=self.total,
                rate_per_second=rate,
                eta_seconds=eta,
                cache_hit_rate=self.cache_hit_rate,
                worker_utilization=utilization,
                final=final,
            )


def _format_seconds(seconds: float) -> str:
    if seconds < 60.0:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(seconds, 60.0)
    if minutes < 60.0:
        return f"{int(minutes)}m{secs:02.0f}s"
    hours, minutes = divmod(minutes, 60.0)
    return f"{int(hours)}h{int(minutes):02d}m"
