"""Tests for the observability analyzers: utilization, imbalance,
overhead decomposition, and the critical-path walk."""

import pytest

from repro.apps.gaussian import GE_COMPUTE_EFFICIENCY
from repro.apps.matmul import MM_COMPUTE_EFFICIENCY
from repro.core.types import MetricError
from repro.experiments.runner import run_ge, run_mm
from repro.network.model import UniformCostNetwork, ZeroCostNetwork
from repro.obs.analysis import (
    critical_path,
    imbalance_index,
    overhead_decomposition,
    rank_utilization,
    utilization_timeline,
)
from repro.sim.engine import Engine
from repro.sim.events import Compute, Multicast, Recv, Send
from repro.sim.trace import RankStats, Tracer


@pytest.fixture(scope="module")
def traced_ge(ge2_cluster, ge2_marked):
    """A traced GE run on the paper's two-node configuration."""
    tracer = Tracer()
    record = run_ge(ge2_cluster, 120, marked=ge2_marked, tracer=tracer)
    return record, tracer


def run_traced(nranks, program, network=None, speeds=None):
    tracer = Tracer()
    net = network if network is not None else UniformCostNetwork(0.01)
    speeds = speeds if speeds is not None else [1e6] * nranks
    result = Engine(nranks, net, speeds, tracer=tracer).run(program)
    return result, tracer


class TestRankUtilization:
    def test_components_sum_to_makespan(self):
        def program(rank):
            if rank == 0:
                yield Compute(seconds=0.3)
                yield Send(1, 8.0, tag=1)
            else:
                yield Recv(src=0, tag=1)
                yield Compute(seconds=0.1)

        result, _ = run_traced(2, program)
        util = rank_utilization(result.stats, result.makespan)
        for u in util:
            total = u.compute + u.send + u.recv_wait + u.idle
            assert total == pytest.approx(result.makespan, abs=1e-12)

    def test_fully_busy_rank_has_unit_utilization(self):
        def program(rank):
            yield Compute(seconds=0.5)

        result, _ = run_traced(1, program, network=ZeroCostNetwork())
        (u,) = rank_utilization(result.stats, result.makespan)
        assert u.utilization == pytest.approx(1.0)
        assert u.idle == 0.0

    def test_idle_rank(self):
        def program(rank):
            if rank == 0:
                yield Compute(seconds=1.0)
            else:
                yield Compute(seconds=0.25)

        result, _ = run_traced(2, program, network=ZeroCostNetwork())
        util = rank_utilization(result.stats, result.makespan)
        assert util[1].idle == pytest.approx(0.75)
        assert util[1].utilization == pytest.approx(0.25)

    def test_ge_run_tiles_the_makespan(self, traced_ge):
        record, _ = traced_ge
        makespan = record.run.makespan
        for u in rank_utilization(record.run.stats, makespan):
            assert u.compute + u.comm + u.idle == pytest.approx(
                makespan, abs=1e-12)
            assert u.idle >= 0

    def test_ge_run_rank_count(self, traced_ge, ge2_cluster):
        record, _ = traced_ge
        util = rank_utilization(record.run.stats, record.run.makespan)
        assert [u.rank for u in util] == list(range(ge2_cluster.nranks))

    def test_ge_run_comm_share_in_unit_interval(self, traced_ge):
        record, _ = traced_ge
        util = rank_utilization(record.run.stats, record.run.makespan)
        comm = sum(u.comm for u in util)
        assert 0 < comm / sum(u.compute + u.comm for u in util) < 1


class TestImbalanceIndex:
    def test_balanced_is_zero(self):
        stats = [RankStats(rank=r, compute_time=2.0) for r in range(4)]
        assert imbalance_index(stats) == pytest.approx(0.0)

    def test_unbalanced(self):
        stats = [
            RankStats(rank=0, compute_time=3.0),
            RankStats(rank=1, compute_time=1.0),
        ]
        # max/mean - 1 = 3/2 - 1
        assert imbalance_index(stats) == pytest.approx(0.5)

    def test_busy_mode(self):
        stats = [
            RankStats(rank=0, compute_time=1.0, send_time=1.0),
            RankStats(rank=1, compute_time=2.0),
        ]
        assert imbalance_index(stats, by="busy") == pytest.approx(0.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(MetricError):
            imbalance_index([RankStats(rank=0)], by="flops")

    def test_small_for_proportional_distribution(self, ge2_cluster,
                                                 ge2_marked):
        record = run_ge(ge2_cluster, 300, marked=ge2_marked)
        assert imbalance_index(record.run.stats) < 0.15


class TestOverheadDecomposition:
    def test_terms_sum_to_makespan(self):
        d = overhead_decomposition(
            work=1e6, marked_speed=1e6, makespan=2.5, compute_efficiency=0.5
        )
        assert d.ideal_compute == pytest.approx(2.0)
        assert d.t0 == 0.0
        assert d.overhead == pytest.approx(0.5)
        assert d.ideal_compute + d.t0 + d.overhead == pytest.approx(d.makespan)
        assert d.overhead_fraction == pytest.approx(0.2)

    def test_alpha_splits_sequential_term(self):
        d = overhead_decomposition(
            work=1e6, marked_speed=1e6, makespan=2.0, alpha=0.25
        )
        assert d.t0 == pytest.approx(0.25)
        assert d.ideal_compute == pytest.approx(0.75)
        assert d.overhead == pytest.approx(1.0)

    def test_overhead_clamped_at_zero(self):
        d = overhead_decomposition(work=1e6, marked_speed=1e6, makespan=0.5)
        assert d.overhead == 0.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(MetricError):
            overhead_decomposition(work=-1, marked_speed=1, makespan=1)
        with pytest.raises(MetricError):
            overhead_decomposition(work=1, marked_speed=0, makespan=1)
        with pytest.raises(MetricError):
            overhead_decomposition(
                work=1, marked_speed=1, makespan=1, compute_efficiency=0
            )
        with pytest.raises(MetricError):
            overhead_decomposition(work=1, marked_speed=1, makespan=1, alpha=1)

    def test_ge_run_overhead_positive_and_below_makespan(self, traced_ge):
        record, _ = traced_ge
        d = record.decomposition()
        assert d.compute_efficiency == GE_COMPUTE_EFFICIENCY
        assert 0 < d.overhead < record.measurement.time

    def test_ge_run_rejects_zero_compute_efficiency(self, traced_ge):
        m = traced_ge[0].measurement
        with pytest.raises(MetricError):
            overhead_decomposition(
                work=m.work, marked_speed=m.marked_speed, makespan=m.time,
                compute_efficiency=0.0,
            )

    def test_mm_run_overhead_plus_ideal_equals_time(self, mm2_cluster,
                                                    mm2_marked):
        record = run_mm(mm2_cluster, 80, marked=mm2_marked)
        d = record.decomposition()
        m = record.measurement
        ideal = m.work / (MM_COMPUTE_EFFICIENCY * m.marked_speed)
        assert d.ideal_compute == pytest.approx(ideal)
        assert d.overhead + ideal == pytest.approx(m.time)

    def test_overhead_fraction_drops_with_problem_size(self, ge2_cluster,
                                                       ge2_marked):
        small = run_ge(ge2_cluster, 60, marked=ge2_marked).decomposition()
        large = run_ge(ge2_cluster, 400, marked=ge2_marked).decomposition()
        assert large.overhead_fraction < small.overhead_fraction


def test_corollary2_on_measured_overheads(mm2_cluster):
    """End-to-end: Corollary 2's psi from *measured* overheads matches the
    work-ratio psi on iso-efficient MM points (alpha = 0)."""
    from repro.core.isospeed_efficiency import scalability
    from repro.core.theory import corollary2_scalability
    from repro.experiments.sweep import required_size_by_simulation
    from repro.machine.sunwulf import mm_configuration

    n1, rec1 = required_size_by_simulation("mm", mm2_cluster, 0.18)
    n2, rec2 = required_size_by_simulation("mm", mm_configuration(4), 0.18)
    psi_work = scalability(
        rec1.measurement.marked_speed, rec1.measurement.work,
        rec2.measurement.marked_speed, rec2.measurement.work,
    )
    psi_thm = corollary2_scalability(
        rec1.decomposition().overhead, rec2.decomposition().overhead,
    )
    assert psi_work == pytest.approx(psi_thm, rel=0.12)


class TestCriticalPath:
    def test_ping_pong_path_length_equals_makespan(self):
        """Acceptance check: deterministic 2-rank ping-pong."""

        def program(rank):
            if rank == 0:
                yield Compute(seconds=0.1)
                yield Send(1, 8.0, tag=1)
                yield Recv(src=1, tag=2)
            else:
                yield Recv(src=0, tag=1)
                yield Compute(seconds=0.2)
                yield Send(0, 8.0, tag=2)

        result, tracer = run_traced(2, program)
        path = critical_path(tracer)
        assert path.complete
        assert path.length == pytest.approx(result.makespan, abs=1e-12)
        assert path.start == 0.0
        assert path.end == pytest.approx(result.makespan)
        # The chain crosses both message edges and both ranks.
        assert len(path.edges) == 2
        assert set(path.time_by_rank) == {0, 1}

    def test_path_times_decompose_makespan(self):
        def program(rank):
            if rank == 0:
                yield Compute(seconds=0.05)
                yield Send(1, 8.0, tag=1)
            else:
                yield Recv(src=0, tag=1)
                yield Compute(seconds=0.1)

        result, tracer = run_traced(2, program)
        path = critical_path(tracer)
        assert path.complete
        total = sum(path.time_by_kind.values())
        assert total == pytest.approx(result.makespan, abs=1e-12)

    def test_independent_ranks_path_is_longest_rank(self):
        def program(rank):
            yield Compute(seconds=0.1 * (rank + 1))

        result, tracer = run_traced(3, program, network=ZeroCostNetwork())
        path = critical_path(tracer)
        assert path.complete
        assert path.length == pytest.approx(0.3)
        assert list(path.time_by_rank) == [2]

    def test_multicast_edge_followed(self):
        def program(rank):
            if rank == 0:
                yield Compute(seconds=0.1)
                yield Multicast((1, 2), 8.0, tag=3)
            else:
                yield Recv(src=0, tag=3)
                yield Compute(seconds=0.2)

        result, tracer = run_traced(3, program)
        path = critical_path(tracer)
        assert path.complete
        assert path.length == pytest.approx(result.makespan, abs=1e-12)
        assert any(e.src_rank == 0 for e in path.edges)

    def test_truncated_trace_reports_incomplete(self):
        tracer = Tracer(limit=2)
        engine = Engine(1, ZeroCostNetwork(), [1e6], tracer=tracer)

        def program(rank):
            for _ in range(5):
                yield Compute(seconds=0.1)

        engine.run(program)
        path = critical_path(tracer)
        assert not path.complete

    def test_empty_trace(self):
        path = critical_path(Tracer())
        assert path.length == 0.0
        assert path.records == []


class TestUtilizationTimeline:
    def test_levels_in_unit_interval(self, traced_ge, ge2_cluster):
        record, tracer = traced_ge
        levels = utilization_timeline(
            tracer, ge2_cluster.nranks, record.measurement.time, bins=30
        )
        assert len(levels) == 30
        assert all(0 <= level <= 1 for level in levels)
        assert max(levels) > 0  # someone computed at some point

    def test_total_busy_time_conserved(self, traced_ge, ge2_cluster):
        """Integral of the utilization equals total compute time."""
        record, tracer = traced_ge
        makespan = record.measurement.time
        bins = 200
        levels = utilization_timeline(tracer, ge2_cluster.nranks, makespan,
                                      bins)
        integral = sum(levels) * (makespan / bins) * ge2_cluster.nranks
        total_compute = sum(s.compute_time for s in record.run.stats)
        assert integral == pytest.approx(total_compute, rel=0.02)

    def test_validation(self, traced_ge):
        _, tracer = traced_ge
        with pytest.raises(MetricError):
            utilization_timeline(tracer, 2, 1.0, bins=0)
        with pytest.raises(MetricError):
            utilization_timeline(tracer, 2, 0.0)
