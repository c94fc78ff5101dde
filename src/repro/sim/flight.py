"""Flight recorder: a last-K record tracer with crash dumps, and its reader.

:class:`~repro.sim.trace.Tracer` keeps the *oldest* records and drops
the tail once its limit is hit — the right shape for building complete
traces, and exactly the wrong one for post-mortem debugging, where the
interesting records are the ones immediately *before* the failure.
:class:`FlightRecorder` is the complement: a tracer whose store is a
bounded ring (``collections.deque(maxlen=K)``) that always holds the
most recent K records and costs O(K) memory regardless of run length.

Recording is the engine's one observation stream with nothing in
between: :meth:`FlightRecorder.append` *is* the ring's C-level
``deque.append``, so when the recorder is the only record store attached
the engine's handlers call it directly with the raw record tuple
``(rank, kind, start, end, *extras)`` (~40 ns per event, where a Python
method call costs ~200 ns).  Detail strings are only formatted at dump
time (:func:`~repro.sim.trace.record_detail`), never on the hot path.

``benchmarks/bench_flight_overhead.py`` gates the overhead against a
bare run (GE, 8 nodes, N=300, paired blocks, median with a 95% CI) at a
5% budget.  On a 2-vCPU host the medians read 5-8% at K=128 and K=512
alike, and 3-4% at K=0, where the ring keeps nothing (EXPERIMENTS.md,
"Flight-recorder capacity"): about half the cost is building the record
tuples, and K=128 against K=512 makes no measurable difference, so the
default stays K=512.

Dumps are written to ``.repro/flight/`` (``$REPRO_FLIGHT_DIR``) when

* the engine raises out of its run loop (``ProtocolError``,
  ``RankFailedError``, ``EventLimitExceeded``, ``DeadlockError``, ...), or
* the watchdog trips at run completion: per-rank virtual-time
  monotonicity over the retained window, utilization collapse (a rank's
  utilization below ``utilization_floor`` — the signature of a
  fail-stopped rank), or a stale-pop-ratio spike (scheduler waste).

Each dump is a self-contained JSON envelope that doubles as a Chrome
trace: the ``traceEvents`` key (built by
:func:`~repro.obs.chrome_trace.chrome_trace_events`) loads directly in
Perfetto / ``chrome://tracing``.  The read side, :func:`list_dumps`,
:func:`load_dump` and :func:`format_dump`, backs ``repro flight
list|show``.
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

from .trace import Tracer, TraceRecord, record_detail, record_view

#: Default ring capacity: enough context to see the collective or
#: protocol exchange leading into a failure (measured cost: see the
#: module docstring).
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


class FlightRecorder(Tracer):
    """A :class:`~repro.sim.trace.Tracer` keeping the most recent K
    records, with crash/watchdog dumps.

    Parameters
    ----------
    capacity:
        Ring size K (``0`` records nothing but still dumps reasons; a
        negative K raises :class:`ValueError`).
    out_dir:
        Dump directory; defaults to ``$REPRO_FLIGHT_DIR`` or
        ``.repro/flight`` resolved at dump time.
    watchdog:
        :class:`WatchdogConfig` thresholds, or ``None`` to disable the
        run-completion health checks (error dumps still fire).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        out_dir: str | os.PathLike | None = None,
        watchdog: WatchdogConfig | None = WatchdogConfig(),
    ):
        super().__init__(limit=capacity)
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.watchdog = watchdog
        self._raw = deque(maxlen=self.limit)
        #: The hot-path entry point: the engine's handlers call this
        #: prebound C-level append with raw ``(rank, kind, start, end,
        #: *extras)`` tuples.  Never wrap it in Python.
        self.append = self._raw.append
        self.dumps: list[Path] = []
        self.last_reason: dict[str, Any] | None = None

    @property
    def capacity(self) -> int:
        """Ring size K (the store's ``limit``)."""
        return self.limit

    @property
    def records(self) -> list[TraceRecord]:
        """The retained records as :class:`TraceRecord` views, oldest
        first (rebuilt on each read: the ring evicts)."""
        return [record_view(rec) for rec in self._raw]

    def render(self) -> list[dict[str, Any]]:
        """Retained records as dicts with formatted detail (the dump's
        ``records``)."""
        return [
            {"rank": rec[0], "kind": rec[1], "start": rec[2], "end": rec[3],
             "detail": record_detail(rec)}
            for rec in self._raw
        ]

    def clear(self) -> None:
        self._raw.clear()

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
        """Run the watchdog over a completed
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
        # any regression is a causality bug in a network model or a
        # handler.
        last_end: dict[int, float] = {}
        for rec in self._raw:
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
        from ..obs.chrome_trace import chrome_trace_events

        self.last_reason = reason
        records = self.render()
        trace_events = chrome_trace_events([("flight recorder", self)])
        trace_events.append({
            "name": "flight_dump", "ph": "i", "s": "g", "ts": 0, "dur": 0,
            "pid": 1, "tid": 0, "args": dict(reason),
        })
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
            "traceEvents": trace_events,
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


# -- read side: list, load and render dumps (``repro flight list|show``) --

def list_dumps(directory: str | Path | None = None) -> list[Path]:
    """Flight-dump files in ``directory`` (default: active flight dir),
    newest first.

    Sorting is by file name, which embeds a UTC timestamp plus a
    monotonic sequence number — stable even when several dumps land
    within the same second.
    """
    root = Path(directory) if directory is not None else flight_dir()
    if not root.is_dir():
        return []
    return sorted(root.glob("flight-*.json"), reverse=True)


#: Field types of one rendered record in a dump's ``records`` list.
_RECORD_FIELDS = {
    "rank": int, "kind": str, "start": (int, float), "end": (int, float),
    "detail": str,
}


def _is_record(rec: Any) -> bool:
    return isinstance(rec, dict) and all(
        isinstance(rec.get(key), kind) for key, kind in _RECORD_FIELDS.items()
    )


def load_dump(path: str | Path) -> dict[str, Any]:
    """Load and validate one dump envelope.

    Raises :class:`ValueError` unless the document is a ``flight-dump``
    whose ``reason`` and ``engine`` are objects and whose ``records`` is
    a list of records carrying ``rank``/``kind``/``start``/``end``/
    ``detail``.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("kind") != "flight-dump":
        raise ValueError(f"{path} is not a flight dump")
    for key in ("reason", "engine"):
        if not isinstance(doc.get(key), dict):
            raise ValueError(f"{path}: flight dump {key!r} is not an object")
    records = doc.get("records")
    if not isinstance(records, list) or not all(map(_is_record, records)):
        raise ValueError(
            f"{path}: flight dump 'records' is not a list of "
            f"{'/'.join(_RECORD_FIELDS)} records"
        )
    return doc


def describe_reason(reason: dict[str, Any]) -> str:
    """One-line human summary of a dump's trigger."""
    trigger = reason.get("trigger", "unknown")
    if trigger == "error":
        return (
            f"error: {reason.get('error_type', '?')}: "
            f"{reason.get('message', '')}"
        )
    if trigger == "watchdog":
        checks = reason.get("checks") or []
        return "watchdog: " + ("; ".join(checks) if checks else "(no detail)")
    return trigger


def format_dump_line(path: Path, doc: dict[str, Any]) -> str:
    """A one-line ``repro flight list`` entry for ``doc``."""
    return (
        f"{path.name}  {doc.get('created_utc', '?')}  "
        f"retained {doc.get('retained', '?')}/{doc.get('capacity', '?')}  "
        f"{describe_reason(doc.get('reason', {}))}"
    )


def format_dump(doc: dict[str, Any], tail: int | None = None) -> str:
    """Render a dump as the readable tail of a trace.

    ``tail`` limits output to the most recent N records (the ones
    closest to the failure; ``0`` shows none); ``None`` shows the whole
    retained window.  A negative ``tail`` raises :class:`ValueError`.
    """
    if tail is not None and tail < 0:
        raise ValueError(f"tail must be >= 0, got {tail}")
    lines = [
        f"flight dump ({doc.get('created_utc', '?')})",
        f"reason: {describe_reason(doc.get('reason', {}))}",
        f"retained {doc.get('retained', 0)} of capacity "
        f"{doc.get('capacity', 0)} records",
    ]
    engine = doc.get("engine") or {}
    if engine:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(engine.items()))
        lines.append(f"engine: {parts}")
    records = doc.get("records") or []
    elided = 0 if tail is None else max(0, len(records) - tail)
    if elided:
        lines.append(f"... {elided} earlier records elided ...")
    for rec in records[elided:]:
        detail = rec.get("detail") or ""
        span = rec.get("end", 0.0) - rec.get("start", 0.0)
        lines.append(
            f"  [{rec.get('start', 0.0):>12.6f}s +{span:.6f}s] "
            f"rank {rec.get('rank', '?'):>3} {rec.get('kind', '?'):<12} "
            f"{detail}"
        )
    if not records:
        lines.append("  (ring was empty at dump time)")
    return "\n".join(lines)
