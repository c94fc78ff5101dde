"""Flight recorder: a last-K ring of trace records with crash dumps.

:class:`~repro.sim.trace.Tracer` keeps the *oldest* records and drops
the tail once its limit is hit — the right shape for building complete
traces, and exactly the wrong one for post-mortem debugging, where the
interesting records are the ones immediately *before* the failure.
:class:`FlightRecorder` is the complement: a bounded ring
(``collections.deque(maxlen=K)``) that always holds the most recent K
records and costs O(K) memory regardless of run length.

Recording is the engine's one observation stream with nothing in
between: :meth:`FlightRecorder.append` *is* the ring's C-level
``deque.append``, so when the recorder is the only sink attached the
engine's handlers call it directly with the raw record tuple
``(rank, kind, start, end, *extras)`` (~40 ns per event, where a Python
method call costs ~200 ns).  Detail strings are only formatted at dump
time (:func:`~repro.sim.trace.record_detail`), never on the hot path.

The dominant recording cost is not the append but the *ring's cache
footprint*: every append at steady state evicts the record inserted K
events earlier, whose cache lines have long gone cold, so each eviction
is a cache-miss-bound deallocation and the overhead grows with K.
Earlier best-of-5 measurements on GE read roughly free at K=128, ~5 %
at K=1024 and ~8 % at K=4096.  At the default K=512,
``benchmarks/bench_flight_overhead.py`` (GE, 8 nodes, N=300, 60 paired
blocks) measured a median of 4.9 % with a 95 % CI of [3.4 %, 8.3 %] on
a 2-vCPU host, against a 5 % budget; hence 512 rather than something
roomier.  Raise it explicitly when a deeper post-mortem window is worth
the throughput.

Dumps are written to ``.repro/flight/`` (``$REPRO_FLIGHT_DIR``) when

* the engine raises out of its run loop (``ProtocolError``,
  ``RankFailedError``, ``EventLimitExceeded``, ``DeadlockError``, ...), or
* the watchdog trips at run completion: per-rank virtual-time
  monotonicity over the retained window, utilization collapse (a rank's
  utilization below ``utilization_floor`` — the signature of a
  fail-stopped rank), or a stale-pop-ratio spike (scheduler waste).

Each dump is a self-contained JSON envelope that doubles as a Chrome
trace: the ``traceEvents`` key loads directly in Perfetto /
``chrome://tracing``.  ``repro flight list|show`` reads them back (see
:mod:`repro.obs.flight`).
"""

from __future__ import annotations

import itertools
import json
import os
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from .trace import record_detail

#: Default ring capacity: enough context to see the collective or
#: protocol exchange leading into a failure, small enough that the ring
#: stays cache-resident (the overhead is eviction-time cache misses and
#: grows with K — see the module docstring for measured numbers).
DEFAULT_CAPACITY = 512

#: Default dump directory (overridden by ``$REPRO_FLIGHT_DIR``).
DEFAULT_FLIGHT_DIR = os.path.join(".repro", "flight")

_DUMP_SEQ = itertools.count()


def flight_dir() -> Path:
    """The active flight-dump directory (env override included)."""
    return Path(os.environ.get("REPRO_FLIGHT_DIR", DEFAULT_FLIGHT_DIR))


@dataclass(frozen=True)
class WatchdogConfig:
    """Thresholds for the online run-health checks.

    ``utilization_floor``
        A rank whose utilization over the run falls below this trips
        ``utilization_collapse`` — the signature of a fail-stopped rank
        sitting dead while the others finish.
    ``stale_ratio_ceiling``
        Fraction of heap pops that were stale entries above which the
        scheduler is mostly spinning on dead work.
    ``min_events``
        Runs shorter than this are never judged (tiny unit-test runs
        legitimately have degenerate utilization profiles).
    """

    utilization_floor: float = 0.05
    stale_ratio_ceiling: float = 0.9
    min_events: int = 256


class FlightRecorder:
    """Bounded most-recent-K record ring with crash/watchdog dumps.

    Parameters
    ----------
    capacity:
        Ring size K (``0`` records nothing but still dumps reasons).
    out_dir:
        Dump directory; defaults to ``$REPRO_FLIGHT_DIR`` or
        ``.repro/flight`` resolved at dump time.
    watchdog:
        :class:`WatchdogConfig` thresholds, or ``None`` to disable the
        run-completion health checks (error dumps still fire).
    """

    __slots__ = ("capacity", "out_dir", "watchdog", "_buf", "append",
                 "dumps", "last_reason")

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        out_dir: str | os.PathLike | None = None,
        watchdog: WatchdogConfig | None = WatchdogConfig(),
    ):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.watchdog = watchdog
        self._buf: deque[tuple] = deque(maxlen=self.capacity)
        #: The hot-path entry point: the engine's handlers call this
        #: prebound C-level append with raw ``(rank, kind, start, end,
        #: *extras)`` tuples.  Never wrap it in Python.
        self.append = self._buf.append
        self.dumps: list[Path] = []
        self.last_reason: dict[str, Any] | None = None

    # -- ring access -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._buf)

    def records(self) -> list[tuple]:
        """Retained raw tuples, oldest first."""
        return list(self._buf)

    def render(self) -> list[dict[str, Any]]:
        """Retained records as dicts with lazily formatted detail."""
        return [_render_record(rec) for rec in self._buf]

    def clear(self) -> None:
        self._buf.clear()

    # -- engine-facing triggers ------------------------------------------
    def dump_error(self, exc: BaseException, **context: Any) -> Path:
        """Dump the ring because ``exc`` escaped the engine run loop."""
        reason = {
            "trigger": "error",
            "error_type": type(exc).__name__,
            "message": str(exc),
        }
        return self.dump(reason, context)

    def run_complete(self, result: Any) -> Path | None:
        """Sink contract: run the watchdog over a completed
        :class:`~repro.sim.engine.RunResult`; dump and return the path if
        any check trips, else ``None``."""
        engine = {
            "makespan": result.makespan,
            "events": result.events,
            "heap_pops": result.heap_pops,
            "stale_pops": result.stale_pops,
        }
        checks = self.check(stats=result.stats, **engine)
        if not checks:
            return None
        reason = {"trigger": "watchdog", "checks": checks}
        return self.dump(reason, {"nranks": len(result.stats), **engine})

    def check(
        self,
        *,
        stats: Sequence[Any],
        makespan: float,
        events: int,
        heap_pops: int,
        stale_pops: int,
    ) -> list[str]:
        """Evaluate the watchdog; returns the tripped-check descriptions."""
        wd = self.watchdog
        if wd is None:
            return []
        checks: list[str] = []

        # Per-rank virtual-time monotonicity over the retained window.
        # The engine emits each rank's records in program order with
        # start >= previous end (exact float equality at the seams), so
        # any regression is a causality bug in a network model or
        # handler extension.
        last_end: dict[int, float] = {}
        for rec in self._buf:
            rank, kind, start, end = rec[0], rec[1], rec[2], rec[3]
            prev = last_end.get(rank)
            if prev is not None and start < prev:
                checks.append(
                    "monotonicity: rank "
                    f"{rank} {kind} starts at {start:g} before previous "
                    f"record end {prev:g}"
                )
                break
            last_end[rank] = end

        if events >= wd.min_events and makespan > 0.0 and stats:
            worst = min(stats, key=lambda st: st.utilization(makespan))
            worst_util = worst.utilization(makespan)
            if worst_util < wd.utilization_floor:
                checks.append(
                    "utilization_collapse: rank "
                    f"{worst.rank} utilization {worst_util:.4f} < floor "
                    f"{wd.utilization_floor:g}"
                )

        if heap_pops >= wd.min_events:
            ratio = stale_pops / heap_pops
            if ratio > wd.stale_ratio_ceiling:
                checks.append(
                    f"stale_pop_spike: {stale_pops}/{heap_pops} heap pops "
                    f"stale ({ratio:.2f} > {wd.stale_ratio_ceiling:g})"
                )
        return checks

    # -- dump -------------------------------------------------------------
    def dump(
        self, reason: dict[str, Any], context: dict[str, Any] | None = None
    ) -> Path:
        """Write the ring tail as a Chrome-trace-compatible envelope."""
        self.last_reason = reason
        records = self.render()
        payload = {
            "kind": "flight-dump",
            "version": 1,
            "created_utc": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            "reason": reason,
            "engine": dict(context or {}),
            "capacity": self.capacity,
            "retained": len(records),
            "records": records,
            "traceEvents": _trace_events(records, reason),
        }
        out_dir = self.out_dir if self.out_dir is not None else flight_dir()
        out_dir.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        while True:
            name = f"flight-{stamp}-p{os.getpid()}-{next(_DUMP_SEQ):04d}.json"
            path = out_dir / name
            if not path.exists():
                break
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
        self.dumps.append(path)
        return path


# -- record rendering (dump time only, never on the hot path) ------------

def _render_record(rec: tuple) -> dict[str, Any]:
    return {
        "rank": rec[0],
        "kind": rec[1],
        "start": rec[2],
        "end": rec[3],
        "detail": record_detail(rec),
    }


def _trace_events(
    records: list[dict[str, Any]], reason: dict[str, Any]
) -> list[dict[str, Any]]:
    """Chrome trace-event array for the dump (microsecond timebase)."""
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "flight recorder"},
        },
        {
            "name": "flight_dump",
            "ph": "i",
            "s": "g",
            "ts": 0,
            "pid": 0,
            "tid": 0,
            "args": dict(reason),
        },
    ]
    seen_ranks: set[int] = set()
    for rec in records:
        rank = rec["rank"]
        if rank not in seen_ranks:
            seen_ranks.add(rank)
            events.append({
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": rank,
                "args": {"name": f"rank {rank}"},
            })
        ts = rec["start"] * 1e6
        if rec["kind"] == "log":
            events.append({
                "name": rec["detail"] or "log",
                "cat": "flight",
                "ph": "i",
                "s": "t",
                "ts": ts,
                "pid": 0,
                "tid": rank,
            })
        else:
            events.append({
                "name": rec["kind"],
                "cat": "flight",
                "ph": "X",
                "ts": ts,
                "dur": (rec["end"] - rec["start"]) * 1e6,
                "pid": 0,
                "tid": rank,
                "args": {"detail": rec["detail"]} if rec["detail"] else {},
            })
    return events
