"""Tests for the paper-table drivers (scaled-down node counts for speed;
the full paper-scale run lives in the benchmark harness)."""

import pytest

from repro.experiments import tables
from repro.experiments.tables import (
    GE_TARGET_EFFICIENCY,
    MM_TARGET_EFFICIENCY,
    base_machine_parameters,
    comparison_ge_vs_mm,
    scalability_from_rows,
    table1_marked_speeds,
    table2_ge_two_nodes,
    table3_required_rank,
    table5_mm_required_rank,
    table6_predicted_rank,
    table7_predicted_scalability,
)

SMALL = (2, 4)


@pytest.fixture(scope="module")
def params():
    return base_machine_parameters()


@pytest.fixture(scope="module")
def ge_rows(params):
    return table3_required_rank(node_counts=SMALL, params=params)


@pytest.fixture(scope="module")
def mm_rows():
    return table5_mm_required_rank(node_counts=SMALL)


class TestTable1:
    def test_three_node_types_reported(self):
        rows = table1_marked_speeds()
        names = [r.name for r in rows]
        assert names == [
            "sunfire-server-480", "sunfire-v210-1000", "sunblade-500"
        ]

    def test_structure_matches_paper(self):
        """V210 fastest, server and SunBlade comparable (Table 1 shape)."""
        server, v210, blade = table1_marked_speeds()
        assert v210.mflops > server.mflops
        assert v210.mflops > blade.mflops
        assert v210.mflops / blade.mflops == pytest.approx(2.2, rel=0.15)


class TestTable2:
    def test_rows_monotone_in_everything(self):
        rows = table2_ge_two_nodes(sizes=(100, 200, 310))
        works = [m.work for m in rows]
        times = [m.time for m in rows]
        effs = [m.speed_efficiency for m in rows]
        speeds = [m.speed for m in rows]
        assert works == sorted(works)
        assert times == sorted(times)
        assert effs == sorted(effs)
        assert speeds == sorted(speeds)

    def test_n310_anchor(self):
        """The paper measures E_S = 0.312 at N = 310; we land near 0.3."""
        (row,) = table2_ge_two_nodes(sizes=(310,))
        assert row.speed_efficiency == pytest.approx(0.3, abs=0.03)


class TestTable3And4:
    def test_required_rank_grows_with_system(self, ge_rows):
        assert ge_rows[0].rank_n < ge_rows[1].rank_n
        assert ge_rows[0].marked_speed < ge_rows[1].marked_speed

    def test_rows_meet_target(self, ge_rows):
        for row in ge_rows:
            assert row.efficiency == pytest.approx(
                GE_TARGET_EFFICIENCY, rel=0.05
            )

    def test_two_node_rank_near_paper_anchor(self, ge_rows):
        """Paper: around 310 on two nodes; calibration target +-15%."""
        assert ge_rows[0].rank_n == pytest.approx(344, rel=0.15)

    def test_scalability_below_one_and_decreasing(self, ge_rows):
        curve = scalability_from_rows(ge_rows, "ge")
        for point in curve.points:
            assert 0 < point.psi < 1

    def test_nranks_column(self, ge_rows):
        assert [r.nranks for r in ge_rows] == [n + 1 for n in SMALL]


class TestTable5:
    def test_mm_rows_meet_target(self, mm_rows):
        for row in mm_rows:
            assert row.efficiency == pytest.approx(
                MM_TARGET_EFFICIENCY, rel=0.05
            )

    def test_mm_scalability_below_one(self, mm_rows):
        curve = scalability_from_rows(mm_rows, "mm")
        assert all(0 < p.psi < 1 for p in curve.points)


class TestComparison:
    def test_mm_more_scalable_than_ge(self, ge_rows, mm_rows):
        """The paper's section 4.4.3 headline: the MM-Sunwulf combination
        is more scalable than GE-Sunwulf."""
        ge_curve = scalability_from_rows(ge_rows, "ge")
        mm_curve = scalability_from_rows(mm_rows, "mm")
        rows = comparison_ge_vs_mm(ge_curve, mm_curve)
        assert all(row.mm_more_scalable for row in rows)

    def test_mismatched_lengths_rejected(self, ge_rows, mm_rows):
        from repro.core.types import MetricError

        ge_curve = scalability_from_rows(ge_rows, "ge")
        with pytest.raises(MetricError):
            comparison_ge_vs_mm(
                ge_curve,
                scalability_from_rows(
                    table5_mm_required_rank(node_counts=(2, 4, 8)), "mm"
                ),
            )


PAPER_NODES = (2, 4, 8)


def probed_walk(executor, ge_params, mm_params):
    """Tables 3 and 5 at 2/4/8 nodes under ``executor``; returns the
    distinct ``(cluster, size)`` probes, the engine events of every point
    the executor ran, and the two tables' rows.

    Probes are counted at :meth:`SweepExecutor.run_faulted`, the one
    door every point of a sweep or bisection goes through."""
    from repro.experiments.executor import SweepExecutor, sweep_execution

    probed = set()
    events = 0
    run_faulted = SweepExecutor.run_faulted

    def counted(self, points):
        nonlocal events
        points = list(points)
        out = run_faulted(self, points)
        for point, (record, _) in zip(points, out):
            probed.add((point.cluster.name, point.n))
            events += record.run.events
        return out

    SweepExecutor.run_faulted = counted
    try:
        with sweep_execution(executor):
            ge = table3_required_rank(PAPER_NODES, params=ge_params)
            mm = table5_mm_required_rank(PAPER_NODES, params=mm_params)
    finally:
        SweepExecutor.run_faulted = run_faulted
    return probed, events, ge, mm


@pytest.fixture(scope="module")
def mm_params():
    from repro.apps.matmul import MM_COMPUTE_EFFICIENCY
    from repro.machine.sunwulf import mm_configuration

    return base_machine_parameters(mm_configuration(2),
                                   MM_COMPUTE_EFFICIENCY)


@pytest.fixture(scope="module")
def serial_walk(params, mm_params):
    from repro.experiments.executor import SweepExecutor

    return probed_walk(SweepExecutor(), params, mm_params)


class TestBisectionProbes:
    def test_paper_rows_never_run_the_bracket_top(self, params, mm_params,
                                                   serial_walk):
        """Tables 3 and 5 at 2/4/8 nodes probe 47 distinct sizes, and no
        row simulates its bracket's upper end ``int(2.5 * n_pred)``."""
        from repro.apps.gaussian import GE_COMPUTE_EFFICIENCY
        from repro.apps.matmul import MM_COMPUTE_EFFICIENCY
        from repro.core.prediction import predict_required_size
        from repro.machine.sunwulf import ge_configuration, mm_configuration

        probed, _, ge, mm = serial_walk
        nodes = PAPER_NODES
        ge_params = params
        assert [row.rank_n for row in ge] == [344, 843, 2235]
        assert [row.rank_n for row in mm] == [48, 100, 210]
        assert len(probed) == 47
        for configure, make_model, params, f, target in (
            (ge_configuration, tables._ge_model, ge_params,
             GE_COMPUTE_EFFICIENCY, GE_TARGET_EFFICIENCY),
            (mm_configuration, tables._mm_model, mm_params,
             MM_COMPUTE_EFFICIENCY, MM_TARGET_EFFICIENCY),
        ):
            for n in nodes:
                cluster = configure(n)
                n_pred = predict_required_size(
                    make_model(cluster, params, f), target
                )
                assert (cluster.name, int(2.5 * n_pred)) not in probed

    def test_pool_runs_exactly_the_serial_probes(self, params, mm_params,
                                                 serial_walk):
        """Under a real two-worker pool the bisections run the serial
        walk's probes and nothing more: 47 distinct sizes and 1,764,957
        engine events, with the same rows and bit-identical psi."""
        from repro.experiments.executor import SweepExecutor

        probed, events, ge, mm = serial_walk
        assert (len(probed), events) == (47, 1_764_957)
        pool_probed, pool_events, pool_ge, pool_mm = probed_walk(
            SweepExecutor(jobs=2), params, mm_params
        )
        assert pool_probed == probed
        assert pool_events == events
        assert (pool_ge, pool_mm) == (ge, mm)
        for app, serial_rows, pool_rows in (("ge", ge, pool_ge),
                                            ("mm", mm, pool_mm)):
            serial_psi = scalability_from_rows(serial_rows, app).points
            pool_psi = scalability_from_rows(pool_rows, app).points
            assert [p.psi for p in pool_psi] == [p.psi for p in serial_psi]

    def test_parallel_rows_equal_serial(self, params, ge_rows):
        from repro.experiments.executor import SweepExecutor, sweep_execution

        with sweep_execution(SweepExecutor(jobs=2)):
            parallel = table3_required_rank(node_counts=SMALL, params=params)
        assert parallel == ge_rows


class TestPrediction:
    def test_table6_predictions_close_to_measured(self, params, ge_rows):
        """Section 4.5's claim: predicted required ranks are close to the
        measured ones (we check within 25% at small scale; accuracy
        improves with system size -- see EXPERIMENTS.md)."""
        predicted = table6_predicted_rank(node_counts=SMALL, params=params)
        for pred, measured in zip(predicted, ge_rows):
            assert pred.rank_n == pytest.approx(measured.rank_n, rel=0.25)

    def test_table7_close_to_table4(self, params, ge_rows):
        # The 2->4 transition is the model's least accurate point (the
        # global machine parameters bill the server's intranode messages
        # at LAN prices, which matters most at p=3); accuracy tightens to
        # within ~10% at 8+ nodes -- the paper-scale benchmark records it.
        predicted = table7_predicted_scalability(
            table6_predicted_rank(node_counts=SMALL, params=params)
        )
        measured = scalability_from_rows(ge_rows, "ge").points
        for pred, meas in zip(predicted, measured):
            assert pred.psi == pytest.approx(meas.psi, rel=0.5)

    def test_predicted_psi_below_one(self, params):
        points = table7_predicted_scalability(
            table6_predicted_rank(node_counts=(2, 4, 8), params=params)
        )
        assert all(0 < p.psi < 1 for p in points)


def test_paper_node_counts_constant():
    assert tables.PAPER_NODE_COUNTS == (2, 4, 8, 16, 32)
