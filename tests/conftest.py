"""Shared fixtures: small clusters, their marked speeds, and run records."""

from __future__ import annotations

import pytest

from repro.experiments.runner import marked_speed_of, run_ge, run_mm
from repro.machine.presets import homogeneous_blades, mixed_pairs
from repro.machine.sunwulf import ge_configuration, mm_configuration
from repro.network.model import ZeroCostNetwork
from repro.network.topology import Topology


@pytest.fixture(autouse=True)
def _isolated_run_cache(tmp_path, monkeypatch):
    """Point the persistent run cache at a per-test directory.

    CLI commands create a cache-backed executor by default, so without
    this every test invoking the CLI would read/write ``.repro/cache``
    in the repo and leak state between tests (and runs).
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "run-cache"))


@pytest.fixture(autouse=True)
def _isolated_flight_dir(tmp_path, monkeypatch):
    """Point flight-recorder dumps at a per-test directory.

    Same reasoning as the run cache: dump-on-error fires inside any test
    that crashes an engine with a recorder attached, and must not land
    in the repo's ``.repro/flight``.
    """
    monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path / "flight"))


@pytest.fixture
def cold_pool():
    """Start with no shared worker pool alive, so the next parallel
    batch pays a genuine cold spawn (an earlier test may have left the
    process-wide pool warm)."""
    from repro.experiments.pool import shutdown_worker_pools

    shutdown_worker_pools()


@pytest.fixture(scope="session")
def ge2_cluster():
    """The paper's two-node GE configuration (server 2 CPUs + SunBlade)."""
    return ge_configuration(2)


@pytest.fixture(scope="session")
def ge4_cluster():
    return ge_configuration(4)


@pytest.fixture(scope="session")
def mm2_cluster():
    """The paper's two-node MM configuration (server CPU + V210 CPU)."""
    return mm_configuration(2)


@pytest.fixture(scope="session")
def mm4_cluster():
    return mm_configuration(4)


@pytest.fixture(scope="session")
def homo4_cluster():
    """Four identical SunBlades: the homogeneous special case."""
    return homogeneous_blades(4)


@pytest.fixture(scope="session")
def hetero4_cluster():
    """Two SunBlade + two V210 single-CPU nodes (2:1 speed ratio)."""
    return mixed_pairs(2)


@pytest.fixture(scope="session")
def ge2_marked(ge2_cluster):
    return marked_speed_of(ge2_cluster)


@pytest.fixture(scope="session")
def ge4_marked(ge4_cluster):
    return marked_speed_of(ge4_cluster)


@pytest.fixture(scope="session")
def mm2_marked(mm2_cluster):
    return marked_speed_of(mm2_cluster)


@pytest.fixture(scope="session")
def ge2_record_n200(ge2_cluster, ge2_marked):
    """One modelled GE run reused by several metric tests."""
    return run_ge(ge2_cluster, 200, marked=ge2_marked)


@pytest.fixture(scope="session")
def mm2_record_n100(mm2_cluster, mm2_marked):
    return run_mm(mm2_cluster, 100, marked=mm2_marked)


@pytest.fixture()
def zero_network():
    return ZeroCostNetwork()


@pytest.fixture()
def line4_topology():
    return Topology.one_per_node(4)
