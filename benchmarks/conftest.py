"""Shared fixtures for the paper-reproduction benchmark harness.

Scale control: set ``REPRO_BENCH_SCALE=quick`` to restrict the studies to
2-8 nodes (minutes -> seconds); the default ``paper`` scale regenerates
every row the paper reports (2-32 nodes; the 16/32-node GE searches
simulate tens of millions of events and take a few minutes).

Each bench writes its regenerated table to ``benchmarks/results/`` so the
outputs survive pytest's stdout capture.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.tables import (
    base_machine_parameters,
    table3_required_rank,
    table5_mm_required_rank,
)

RESULTS_DIR = Path(__file__).parent / "results"


def node_counts() -> tuple[int, ...]:
    quick = os.environ.get("REPRO_BENCH_SCALE", "paper") == "quick"
    return (2, 4, 8) if quick else (2, 4, 8, 16, 32)


@pytest.fixture(scope="session")
def scale_nodes() -> tuple[int, ...]:
    return node_counts()


@pytest.fixture(scope="session")
def machine_params():
    """Section-4.5 machine parameters, measured once on the base config."""
    return base_machine_parameters()


@pytest.fixture(scope="session")
def ge_rows(scale_nodes, machine_params):
    """The expensive GE required-rank study (Tables 3/4), computed once."""
    return table3_required_rank(node_counts=scale_nodes, params=machine_params)


@pytest.fixture(scope="session")
def mm_rows(scale_nodes):
    """The MM required-rank study (Table 5 / Figure 2 companion)."""
    return table5_mm_required_rank(node_counts=scale_nodes)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: Path, name: str, text: str) -> None:
    (results_dir / f"{name}.txt").write_text(text + "\n")
