"""Structured JSONL event logging for simulated runs.

Every event is one JSON object per line with a fixed envelope --
``ts_utc``, ``level``, ``event`` -- plus whatever fields the caller bound
or passed, so run logs are grep-able *and* machine-parseable (the run
ledger and CI both consume them).  A :class:`StructLogger` is run-scoped:
:meth:`StructLogger.bind` returns a child sharing the same sink with
extra fields (``app=``, ``rank=``, ``phase=``, ...) attached to every
subsequent event.

Loggers carry the sweep, ledger and trace-collector warnings (``log=``
on :class:`~repro.experiments.executor.SweepExecutor`,
:class:`~repro.obs.ledger.RunLedger` and friends); the engine itself is
observed only through its record stores (:mod:`repro.sim.trace`).
"""

from __future__ import annotations

import io
import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


class _Sink:
    """Shared output target of a logger family (root + all children)."""

    __slots__ = ("events", "stream", "_path", "once_keys")

    def __init__(self, target: Any = None):
        self.events: list[dict[str, Any]] | None = None
        self.stream: Any = None
        self._path: Path | None = None
        self.once_keys: set[str] = set()
        if target is None:
            self.events = []
        elif isinstance(target, list):
            self.events = target
        elif isinstance(target, (str, Path)):
            self._path = Path(target)
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self.stream = self._path.open("a")
        elif hasattr(target, "write"):
            self.stream = target
        else:
            raise TypeError(
                f"sink must be None, a list, a path or a writable stream, "
                f"got {target!r}"
            )

    def emit(self, record: dict[str, Any]) -> None:
        if self.events is not None:
            self.events.append(record)
        if self.stream is not None:
            self.stream.write(json.dumps(record, sort_keys=True) + "\n")
            if hasattr(self.stream, "flush"):
                self.stream.flush()

    def close(self) -> None:
        if self._path is not None and self.stream is not None:
            self.stream.close()
            self.stream = None


class StructLogger:
    """Run-scoped structured logger writing one JSON object per event.

    Parameters
    ----------
    sink:
        Where events go: ``None`` (in-memory list, see :attr:`events`), an
        existing list, a file path (opened append, JSONL), or any object
        with a ``write`` method (e.g. ``sys.stderr``).
    **bound:
        Fields attached to every event this logger (and its children)
        emits -- typically ``run_id=``, ``app=``, ``rank=``, ``phase=``.
    """

    def __init__(self, sink: Any = None, **bound: Any):
        self._sink = sink if isinstance(sink, _Sink) else _Sink(sink)
        self._bound = dict(bound)

    # -- core --------------------------------------------------------------
    def bind(self, **fields: Any) -> "StructLogger":
        """A child logger with extra bound fields, sharing this sink."""
        merged = {**self._bound, **fields}
        return StructLogger(self._sink, **merged)

    @property
    def bound(self) -> Mapping[str, Any]:
        """Read-only view of the fields bound to this logger."""
        return dict(self._bound)

    @property
    def events(self) -> list[dict[str, Any]]:
        """The in-memory event list (empty for stream-only sinks)."""
        return self._sink.events if self._sink.events is not None else []

    def event(self, event: str, _level: str = "info", **fields: Any) -> dict[str, Any]:
        """Emit one structured event and return the record."""
        record = {
            "ts_utc": _utc_now(),
            "level": _level,
            "event": event,
            **self._bound,
            **fields,
        }
        self._sink.emit(record)
        return record

    def info(self, event: str, **fields: Any) -> dict[str, Any]:
        return self.event(event, _level="info", **fields)

    def warning(self, event: str, **fields: Any) -> dict[str, Any]:
        return self.event(event, _level="warning", **fields)

    def error(self, event: str, **fields: Any) -> dict[str, Any]:
        return self.event(event, _level="error", **fields)

    def warn_once(self, key: str, event: str, **fields: Any) -> bool:
        """Emit a warning only the first time ``key`` is seen on this sink.

        Returns True when the warning was emitted.  Dedup is sink-wide, so
        all loggers of one run share the once-set.
        """
        if key in self._sink.once_keys:
            return False
        self._sink.once_keys.add(key)
        self.warning(event, **fields)
        return True

    def close(self) -> None:
        """Close a path-backed sink (no-op otherwise)."""
        self._sink.close()

    def __enter__(self) -> "StructLogger":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def stderr_logger(**bound: Any) -> StructLogger:
    """A logger writing JSONL to ``sys.stderr`` (warnings, CI surfacing).

    Resolves ``sys.stderr`` at emit time so pytest's capture redirection
    is honoured.
    """

    class _StderrProxy(io.TextIOBase):
        def write(self, text: str) -> int:  # pragma: no cover - trivial
            return sys.stderr.write(text)

        def flush(self) -> None:  # pragma: no cover - trivial
            sys.stderr.flush()

    return StructLogger(_StderrProxy(), **bound)
