"""Read side of the flight recorder: list and render crash dumps.

:class:`~repro.sim.flight.FlightRecorder` writes self-contained JSON
envelopes into ``.repro/flight/`` (``$REPRO_FLIGHT_DIR``) when a run
dies or the watchdog trips.  This module is the consumer: ``repro
flight list`` enumerates the dumps newest-first and ``repro flight
show`` renders one as a readable tail-of-trace, so a post-mortem never
requires opening the JSON by hand.  The same file loads directly in
Perfetto / ``chrome://tracing`` via its ``traceEvents`` key.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..sim.flight import flight_dir


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
    closest to the failure); ``None`` shows the whole retained window.
    """
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
    shown = records[-tail:] if tail is not None and tail >= 0 else records
    if len(shown) < len(records):
        lines.append(
            f"... {len(records) - len(shown)} earlier records elided ..."
        )
    for rec in shown:
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
