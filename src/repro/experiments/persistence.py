"""Saving and loading study results as JSON.

The paper-scale GE study simulates ~40M events; persisting its
iso-efficient points lets benches, notebooks and the CLI reuse them
without re-simulation.  The format is a plain versioned JSON document so
results are diffable and survive library upgrades gracefully (unknown
fields are ignored; a major-version mismatch raises).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from ..core.types import Measurement, MetricError, ScalabilityCurve, ScalabilityPoint
from .tables import RequiredRankRow

FORMAT_VERSION = 1


# -- generic versioned documents --------------------------------------------

def write_json_document(
    path: str | Path,
    kind: str,
    payload: dict[str, Any],
    metadata: dict[str, Any] | None = None,
) -> None:
    """Write a versioned JSON document of the given ``kind``.

    All persisted artifacts (studies, profile metrics, run records, ...)
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


def row_to_dict(row: RequiredRankRow) -> dict[str, Any]:
    return {
        "nodes": row.nodes,
        "nranks": row.nranks,
        "rank_n": row.rank_n,
        "workload": row.workload,
        "marked_speed": row.marked_speed,
        "efficiency": row.efficiency,
        "measurement": measurement_to_dict(row.measurement),
    }


def row_from_dict(data: dict[str, Any]) -> RequiredRankRow:
    return RequiredRankRow(
        nodes=data["nodes"],
        nranks=data["nranks"],
        rank_n=data["rank_n"],
        workload=data["workload"],
        marked_speed=data["marked_speed"],
        efficiency=data["efficiency"],
        measurement=measurement_from_dict(data["measurement"]),
    )


def curve_to_dict(curve: ScalabilityCurve) -> dict[str, Any]:
    return {
        "metric": curve.metric,
        "points": [asdict(point) for point in curve.points],
    }


def curve_from_dict(data: dict[str, Any]) -> ScalabilityCurve:
    return ScalabilityCurve(
        metric=data["metric"],
        points=tuple(ScalabilityPoint(**point) for point in data["points"]),
    )


# -- study documents ----------------------------------------------------------

def save_study(
    path: str | Path,
    rows: list[RequiredRankRow],
    metadata: dict[str, Any] | None = None,
) -> None:
    """Write a required-rank study to a JSON document."""
    write_json_document(
        path,
        kind="required-rank-study",
        payload={"rows": [row_to_dict(row) for row in rows]},
        metadata=metadata,
    )


def load_study(path: str | Path) -> tuple[list[RequiredRankRow], dict[str, Any]]:
    """Read a study back; returns (rows, metadata)."""
    document = read_json_document(path, kind="required-rank-study")
    rows = [row_from_dict(entry) for entry in document["rows"]]
    return rows, document.get("metadata", {})


def load_or_compute_study(
    path: str | Path,
    compute,
    metadata: dict[str, Any] | None = None,
    refresh: bool = False,
) -> list[RequiredRankRow]:
    """Memoize an expensive study on disk.

    ``compute`` is a zero-argument callable returning the rows; it runs
    only when the file is absent, unreadable, or ``refresh`` is set.
    """
    path = Path(path)
    if not refresh and path.exists():
        try:
            rows, _ = load_study(path)
            return rows
        except MetricError:
            pass  # fall through and recompute
    rows = compute()
    path.parent.mkdir(parents=True, exist_ok=True)
    save_study(path, rows, metadata=metadata)
    return rows
