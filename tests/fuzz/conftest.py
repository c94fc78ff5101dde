"""Shared fuzz fixtures: tiny scenarios and deliberately broken networks."""

from __future__ import annotations

import pytest

from repro.fuzz import ClusterModel, Scenario


@pytest.fixture
def tiny_cluster():
    """Two blades + one V210: 4 ranks, heterogeneous, fast to simulate."""
    return ClusterModel(groups=(("blade", 2), ("v210", 1)), network="bus")


@pytest.fixture
def clean_scenario(tiny_cluster):
    """A fault-free scenario that passes every invariant."""
    return Scenario(app="ge", n=64, cluster=tiny_cluster)


class _TimeWarpNetwork:
    """A hostile network model: every message arrives the instant it is
    sent, regardless of what the real model says.  Passes the engine's
    cheap guards (arrival == start is not retrograde) but makes faulted
    runs *beat* their fault-free baseline -- exactly the class of bug the
    oracle's baseline-dominance and psi-bounds checks exist to catch."""

    def __init__(self, inner):
        self._inner = inner

    def transfer(self, src, dst, nbytes, start):
        sender_done, _arrival = self._inner.transfer(src, dst, nbytes, start)
        return sender_done, start


@pytest.fixture
def time_warp(monkeypatch):
    """Plant the time-warp bug for the test's duration: every faulted run
    (they all go through ``faulty_mpi_run``) sees its network wrapped in
    :class:`_TimeWarpNetwork`; fault-free baselines stay honest.

    The patch reaches only this process, so tests using it run serial,
    with no cache or a per-test one, and leave ``bit_identity`` off (a
    pool worker forked earlier would run the honest network).
    """
    import repro.faults.run as fault_run

    honest = fault_run.faulty_mpi_run

    def warped(nranks, network, *args, **kwargs):
        return honest(nranks, _TimeWarpNetwork(network), *args, **kwargs)

    monkeypatch.setattr(fault_run, "faulty_mpi_run", warped)
