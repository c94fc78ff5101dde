"""Run summaries and sweep progress: rank statistics, rates, heartbeat.

* :func:`summarize_rank_stats` — the ``rank_summary`` block of ledger
  records, ``metrics.json`` and ``repro profile`` output: exact
  count/mean/std/min/max and p50/p90/p99 of per-rank utilization, idle
  seconds and flops, plus the top-k busiest and idlest ranks.
* :class:`RateMeter` — windowed events/s over explicit timestamps.
* :class:`ProgressReporter` — the ``--progress`` heartbeat for
  :class:`~repro.experiments.executor.SweepExecutor`.
* :func:`warn` — the one ``warning: <event> key=value ...`` stderr line
  of sweeps, trace collectors and the adversarial search.

The rank summary is computed from the per-rank values the run already
holds in memory, so its numbers are exact rather than estimated.  The
unbounded per-event streams (operation durations, message sizes, sweep
phases) are bucketed by :class:`~repro.obs.metrics.Histogram` instead.
Everything here is deterministic for a fixed input order, so attaching
it never perturbs the bit-identity contract of the engine.
"""

from __future__ import annotations

import heapq
import math
import sys
import time
from collections import deque
from typing import Any, Callable, Sequence, TextIO

__all__ = [
    "RateMeter",
    "summarize_rank_stats",
    "ProgressReporter",
    "warn",
]


def warn(event: str, **fields: Any) -> None:
    """Print ``warning: <event> key=value ...`` to the current stderr.

    The caller owns deduplication: each warning fires once per owner
    (collector, executor, attack), decided where it is raised.
    """
    detail = "".join(f" {key}={value}" for key, value in fields.items())
    print(f"warning: {event}{detail}", file=sys.stderr, flush=True)


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


#: Quantiles of every ``rank_summary`` distribution, by JSON key.
_QUANTILES = (("p50", 0.5), ("p90", 0.9), ("p99", 0.99))


def _exact_summary(values: Sequence[float]) -> dict[str, float]:
    """count/mean/std/min/max and :data:`_QUANTILES` of ``values``.

    ``mean`` is ``math.fsum(values) / n``; ``std`` is the sample standard
    deviation (n-1 denominator, 0.0 below two values); each quantile
    interpolates linearly at position ``p * (n - 1)`` of the sorted
    values (numpy's default ``percentile`` method).  An empty input
    reports zeros.
    """
    n = len(values)
    if n == 0:
        out = {"count": 0, "mean": 0.0, "std": 0.0, "min": 0.0, "max": 0.0}
        out.update((key, 0.0) for key, _ in _QUANTILES)
        return out
    ordered = sorted(values)
    mean = math.fsum(ordered) / n
    variance = (
        math.fsum((v - mean) ** 2 for v in ordered) / (n - 1) if n > 1 else 0.0
    )
    out = {
        "count": n,
        "mean": mean,
        "std": math.sqrt(variance),
        "min": ordered[0],
        "max": ordered[-1],
    }
    for key, p in _QUANTILES:
        pos = p * (n - 1)
        lo = int(pos)
        hi = min(lo + 1, n - 1)
        out[key] = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return out


def summarize_rank_stats(
    stats: Sequence[Any], makespan: float, top_k: int = 3
) -> dict[str, Any]:
    """Rank summary: exact distributions + top-k busiest/idlest ranks.

    Summarizes per-rank utilization, idle seconds and flops with
    :func:`_exact_summary`.  ``stats`` is any sequence with the
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
        "utilization": _exact_summary([_util(st) for st in stats]),
        "idle_seconds": _exact_summary([_idle(st) for st in stats]),
        "flops": _exact_summary([st.flops for st in stats]),
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
    the sweep telemetry stream; the reporter prints a rate-limited
    heartbeat line to ``stream``.

    ETA comes from the :class:`RateMeter` window, so it tracks the
    *current* completion rate (cache-hit bursts and slow tail points
    shift it immediately) rather than the whole-run average.
    """

    __slots__ = (
        "stream", "interval", "label", "total", "done", "hits",
        "_rate", "_clock", "_started", "_last_emit", "_busy_seconds",
        "_workers", "lines",
    )

    def __init__(
        self,
        stream: TextIO | None = None,
        interval: float = 1.0,
        clock: Callable[[], float] | None = None,
        window: float = 30.0,
    ):
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
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


def _format_seconds(seconds: float) -> str:
    if seconds < 60.0:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(seconds, 60.0)
    if minutes < 60.0:
        return f"{int(minutes)}m{secs:02.0f}s"
    hours, minutes = divmod(minutes, 60.0)
    return f"{int(hours)}h{int(minutes):02d}m"
