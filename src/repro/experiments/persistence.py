"""Versioned JSON documents and the measurement encoding.

Every persisted artifact (run records, profile metrics, fault
schedules, fuzz scenarios and corpus cases) is a plain versioned JSON
document, so results are diffable and survive library upgrades
gracefully (unknown fields are ignored; a version mismatch raises).
The run cache stores measurements in the :func:`measurement_to_dict`
form.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from ..core.types import Measurement, MetricError

FORMAT_VERSION = 1


# -- generic versioned documents --------------------------------------------

def write_json_document(
    path: str | Path,
    kind: str,
    payload: dict[str, Any],
    metadata: dict[str, Any] | None = None,
) -> None:
    """Write a versioned JSON document of the given ``kind``.

    All persisted artifacts (profile metrics, run records, ...)
    share this envelope: ``format_version`` + ``kind`` + ``metadata`` +
    the payload's own keys, so readers can validate without knowing every
    format.  ``metadata`` is automatically stamped with ``created_utc``
    and the writing ``repro_version`` (callers may override either;
    readers ignore unknown fields, so old documents stay loadable).
    Parent directories are created as needed.
    """
    from .. import __version__

    metadata = dict(metadata or {})
    metadata.setdefault(
        "created_utc",
        datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
    metadata.setdefault("repro_version", __version__)
    document = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "metadata": metadata,
        **payload,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def read_json_document(path: str | Path, kind: str) -> dict[str, Any]:
    """Read a versioned JSON document, validating envelope and ``kind``."""
    path = Path(path)
    if not path.exists():
        raise MetricError(f"no document at {path}")
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise MetricError(f"corrupt document {path}: {err}") from err
    if not isinstance(document, dict):
        raise MetricError(f"{path} does not contain a JSON object")
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        found = "no format version" if version is None else f"version {version!r}"
        raise MetricError(
            f"document {path}: expected format version {FORMAT_VERSION}, "
            f"found {found}"
        )
    if document.get("kind") != kind:
        raise MetricError(
            f"{path} is a {document.get('kind')!r} document, expected {kind!r}"
        )
    return document


# -- encoding ---------------------------------------------------------------

def measurement_to_dict(measurement: Measurement) -> dict[str, Any]:
    return {
        "work": measurement.work,
        "time": measurement.time,
        "marked_speed": measurement.marked_speed,
        "problem_size": measurement.problem_size,
        "label": measurement.label,
        "extra": dict(measurement.extra),
    }


def measurement_from_dict(data: dict[str, Any]) -> Measurement:
    return Measurement(
        work=data["work"],
        time=data["time"],
        marked_speed=data["marked_speed"],
        problem_size=data.get("problem_size"),
        label=data.get("label", ""),
        extra=data.get("extra", {}),
    )
