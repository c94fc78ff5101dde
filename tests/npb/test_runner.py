"""Unit tests for marked-speed measurement (section 4.3)."""

import pytest

from repro.machine.presets import mixed_pairs
from repro.machine.sunwulf import (
    MARKED_SPEED_KERNELS,
    SERVER_CPU,
    SUNBLADE_CPU,
    V210_CPU,
    ge_configuration,
)
from repro.npb.runner import clear_cache, measure_cluster, measure_node


class TestMeasureNode:
    def test_marked_speed_is_suite_average(self):
        marked = measure_node(SUNBLADE_CPU)
        expected = (
            sum(
                SUNBLADE_CPU.sustained_mflops(k) * 1e6
                for k in MARKED_SPEED_KERNELS
            )
            / len(MARKED_SPEED_KERNELS)
        )
        assert marked.flops_per_second == pytest.approx(expected)

    def test_per_kernel_speeds_recorded(self):
        marked = measure_node(SERVER_CPU)
        assert set(marked.kernel_speeds) == set(MARKED_SPEED_KERNELS)
        for kernel, speed in marked.kernel_speeds.items():
            assert speed == pytest.approx(
                SERVER_CPU.sustained_mflops(kernel) * 1e6
            )

    def test_calibrated_values_match_design_targets(self):
        """DESIGN.md documents ~60/55/120 Mflops; the measurement must
        reproduce them (they are the paper's Table 1 stand-ins)."""
        assert measure_node(SERVER_CPU).mflops == pytest.approx(60.0, rel=0.02)
        assert measure_node(SUNBLADE_CPU).mflops == pytest.approx(55.0, rel=0.02)
        assert measure_node(V210_CPU).mflops == pytest.approx(120.0, rel=0.02)

    def test_subset_of_kernels(self):
        clear_cache()
        marked = measure_node(SUNBLADE_CPU, kernels=("ep", "lu"))
        assert set(marked.kernel_speeds) == {"ep", "lu"}
        clear_cache()

    def test_cache_returns_same_object(self):
        a = measure_node(V210_CPU)
        b = measure_node(V210_CPU)
        assert a is b

    def test_no_cache_returns_fresh_equal_values(self):
        a = measure_node(V210_CPU, use_cache=False)
        b = measure_node(V210_CPU, use_cache=False)
        assert a is not b
        assert a.flops_per_second == b.flops_per_second


class TestMeasureCluster:
    def test_ge2_configuration_marked_speed(self):
        """C_2 = 2 server CPUs + 1 SunBlade, the paper's first ensemble."""
        marked = measure_cluster(ge_configuration(2))
        assert marked.nranks == 3
        expected = 2 * 60.0 + 55.0
        assert marked.total_mflops == pytest.approx(expected, rel=0.02)

    def test_additivity_over_slots(self):
        cluster = mixed_pairs(2)
        marked = measure_cluster(cluster)
        assert marked.total == pytest.approx(sum(marked.speeds))

    def test_shares_reflect_heterogeneity(self):
        marked = measure_cluster(mixed_pairs(1))
        blade_share, v210_share = marked.shares
        assert v210_share > blade_share
        assert blade_share + v210_share == pytest.approx(1.0)

    @pytest.mark.parametrize("use_cache", [True, False])
    def test_per_type_measurement_equals_per_slot(self, use_cache):
        """One measurement per processor type, shared by its slots, gives
        the per-slot answer on a mixed cluster."""
        cluster = ge_configuration(8)
        per_slot = tuple(measure_node(slot.ptype, use_cache=use_cache)
                         for slot in cluster.slots)
        marked = measure_cluster(cluster, use_cache=use_cache)
        assert len({slot.ptype.name for slot in cluster.slots}) == 2
        assert marked.per_rank == per_slot
        assert marked.speeds == [node.flops_per_second for node in per_slot]
