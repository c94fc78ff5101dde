"""Unit tests for the hierarchical network models (fat-tree/torus/tiered)."""

import math

import pytest

from repro.faults.network import FaultyNetworkModel
from repro.faults.schedule import FaultSchedule, LinkDegradation, MessageLoss
from repro.network.ethernet import (
    SharedBusEthernet,
    known_network_spec,
    make_network,
    parse_network_spec,
)
from repro.network.hierarchy import FatTreeNetwork, TieredNetwork, TorusNetwork
from repro.network.model import ETHERNET_100M, SwitchedNetwork
from repro.network.topology import Topology
from repro.sim.errors import InvalidOperationError

NBYTES = 11250.0


def fat_tree_topo(nranks=16):
    # 2 ranks/node, 2 nodes/edge switch, 2 edges/pod: exercises all four
    # placement relations (intra-node, intra-rack, intra-zone, cross-zone).
    return Topology.fat_tree(
        nranks, ranks_per_node=2, nodes_per_edge=2, edges_per_pod=2
    )


def tiered_topo(nranks=16):
    return Topology.rack_blocks(
        nranks, ranks_per_node=2, nodes_per_rack=2, racks_per_zone=2
    )


def all_pairs(nranks):
    return [(a, b) for a in range(nranks) for b in range(nranks) if a != b]


class TestSymmetry:
    """transfer(a, b) and transfer(b, a) cost the same on every model."""

    @pytest.mark.parametrize(
        "net",
        [
            FatTreeNetwork(fat_tree_topo(), oversubscription=2.0),
            TorusNetwork(Topology.one_per_node(12), width=4, height=3),
            TieredNetwork(tiered_topo(), oversubscription=2.0),
        ],
        ids=["fat-tree", "torus", "tiered"],
    )
    def test_transfer_cost_is_symmetric(self, net):
        for a, b in all_pairs(net.topology.nranks):
            assert net.transfer(a, b, NBYTES, 1.0) == net.transfer(
                b, a, NBYTES, 1.0
            )

    def test_fat_tree_hops_symmetric_and_leveled(self):
        net = FatTreeNetwork(fat_tree_topo())
        seen = set()
        for a, b in all_pairs(net.topology.nranks):
            hops = net.hops(a, b)
            assert hops == net.hops(b, a)
            seen.add(hops)
        assert seen == {0, 1, 2, 3}

    def test_torus_hops_symmetric_and_wraparound(self):
        net = TorusNetwork(Topology.one_per_node(12), width=4, height=3)
        for a, b in all_pairs(12):
            assert net.hops(a, b) == net.hops(b, a)
        # Opposite corners of a 4x3 torus are 1+1 hops via wraparound,
        # not the 3+2 a plain mesh would charge.
        assert net.hops(0, 11) == 2

    def test_self_send_is_free(self):
        for net in (
            FatTreeNetwork(fat_tree_topo()),
            TorusNetwork(Topology.one_per_node(4)),
            TieredNetwork(tiered_topo()),
        ):
            assert net.transfer(2, 2, 1e9, 5.0) == (5.0, 5.0)


class TestOversubscription:
    """More core contention must never make any transfer faster."""

    @pytest.mark.parametrize("model", [FatTreeNetwork, TieredNetwork])
    def test_transfers_never_faster_with_more_oversubscription(self, model):
        topo = fat_tree_topo()
        nets = [
            model(topo, oversubscription=f) for f in (1.0, 2.0, 4.0)
        ]
        for a, b in all_pairs(topo.nranks):
            costs = [net.transfer(a, b, NBYTES, 0.0) for net in nets]
            for lean, fat in zip(costs, costs[1:]):
                assert fat[0] >= lean[0]
                assert fat[1] >= lean[1]

    def test_broadcast_never_faster_with_more_oversubscription(self):
        # The engine serializes a multicast as unicasts; a tapered core
        # must make the whole broadcast chain at least as slow.
        topo = fat_tree_topo()

        def broadcast_makespan(net):
            clock, last_arrival = 0.0, 0.0
            for dst in range(1, topo.nranks):
                clock, arrival = net.transfer(0, dst, NBYTES, clock)
                last_arrival = max(last_arrival, arrival)
            return last_arrival

        makespans = [
            broadcast_makespan(FatTreeNetwork(topo, oversubscription=f))
            for f in (1.0, 1.5, 2.0, 4.0)
        ]
        assert makespans == sorted(makespans)

    def test_oversubscription_below_one_rejected(self):
        for model in (FatTreeNetwork, TieredNetwork):
            with pytest.raises(InvalidOperationError):
                model(fat_tree_topo(), oversubscription=0.5)

    def test_intra_rack_traffic_unaffected_by_oversubscription(self):
        topo = fat_tree_topo()
        lean = FatTreeNetwork(topo, oversubscription=1.0)
        fat = FatTreeNetwork(topo, oversubscription=8.0)
        # Ranks 2 and 3 share a node; 0 and 2 share an edge switch.
        assert lean.hops(0, 2) == 1
        assert fat.transfer(0, 2, NBYTES, 0.0) == lean.transfer(
            0, 2, NBYTES, 0.0
        )


class TestTieredClasses:
    def test_tier_classification(self):
        net = TieredNetwork(tiered_topo(16))
        assert net.tier_of(0, 1) == 0  # same node
        assert net.tier_of(0, 2) == 1  # same rack
        assert net.tier_of(0, 4) == 2  # same zone, other rack
        assert net.tier_of(0, 8) == 3  # other zone
        assert net.params_for(0, 1) is net.intranode
        assert net.params_for(0, 8) is net.interzone

    def test_higher_tiers_cost_at_least_as_much(self):
        net = TieredNetwork(tiered_topo(16), oversubscription=2.0)
        costs = [
            net.transfer(0, dst, NBYTES, 0.0)[1] for dst in (1, 2, 4, 8)
        ]
        assert costs == sorted(costs)

    def test_empty_topology_rejected(self):
        empty = Topology(node_ids=())
        for model in (FatTreeNetwork, TorusNetwork, TieredNetwork):
            with pytest.raises(InvalidOperationError):
                model(empty)


class TestTorusGeometry:
    def test_too_small_grid_rejected(self):
        with pytest.raises(InvalidOperationError):
            TorusNetwork(Topology.one_per_node(12), width=2, height=2)

    def test_default_grid_fits_all_nodes(self):
        net = TorusNetwork(Topology.one_per_node(10))
        assert net.width * net.height >= 10

    def test_intranode_bypasses_mesh(self):
        topo = Topology.from_sequence([0, 0, 1, 1])
        net = TorusNetwork(topo)
        done, arrival = net.transfer(0, 1, NBYTES, 0.0)
        intra = net.intranode
        assert done == pytest.approx(
            intra.software_overhead + NBYTES / intra.bandwidth
        )
        assert arrival == pytest.approx(done + intra.latency)


class TestFaultComposition:
    """Hierarchical models compose with FaultyNetworkModel like flat ones."""

    def test_topology_seen_through_wrapper(self):
        inner = TieredNetwork(tiered_topo())
        wrapped = FaultyNetworkModel(inner, FaultSchedule())
        assert wrapped.topology is inner.topology

    def test_degradation_slows_tiered_transfers(self):
        topo = tiered_topo()
        clean = TieredNetwork(topo, oversubscription=2.0)
        degraded = FaultyNetworkModel(
            TieredNetwork(topo, oversubscription=2.0),
            FaultSchedule(events=(
                LinkDegradation(
                    onset=0.0, duration=None, bandwidth_factor=0.25
                ),
            )),
        )
        for a, b in ((0, 2), (0, 4), (0, 8)):
            _, clean_arrival = clean.transfer(a, b, NBYTES, 0.0)
            _, slow_arrival = degraded.transfer(a, b, NBYTES, 0.0)
            assert slow_arrival > clean_arrival

    def test_message_loss_on_fat_tree_yields_inf_arrival(self):
        net = FaultyNetworkModel(
            FatTreeNetwork(fat_tree_topo()),
            FaultSchedule(events=(MessageLoss(src=0, dst=4, every=1),)),
        )
        _, arrival = net.transfer(0, 4, NBYTES, 0.0)
        assert arrival == math.inf
        # Untargeted pairs are untouched.
        _, arrival = net.transfer(1, 5, NBYTES, 0.0)
        assert arrival < math.inf


class TestSpecParsing:
    def test_flat_kinds_take_no_params(self):
        assert parse_network_spec("bus") == ("bus", ())
        with pytest.raises(InvalidOperationError):
            parse_network_spec("bus:2")

    def test_hierarchical_params_parsed(self):
        assert parse_network_spec("fat-tree:8:2") == ("fat-tree", (8.0, 2.0))
        assert parse_network_spec("torus:16:8") == ("torus", (16.0, 8.0))
        assert parse_network_spec("tiered") == ("tiered", ())

    @pytest.mark.parametrize(
        "spec",
        ["token-ring", "fat-tree:0", "fat-tree:-2", "torus:four",
         "torus:2:2:2", "tiered:1:2:3:4",
         "torus:nan", "fat-tree:inf", "tiered:1e400", "fat-tree:8:nan",
         "tiered:8:4:inf", "torus:2.5", "torus:4:1.5", "fat-tree:2.5",
         "fat-tree:8:2:1.5", "tiered:8.5", "tiered:8:2.5"],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(InvalidOperationError):
            parse_network_spec(spec)
        assert not known_network_spec(spec)

    def test_known_network_spec_accepts_valid(self):
        for spec in ("bus", "switch", "zero", "fat-tree:4:2", "torus",
                     "tiered:8:4:2", "fat-tree:8:1.5", "tiered:8:4:2.5",
                     "torus:4.0"):
            assert known_network_spec(spec)


class TestFactory:
    def test_make_network_builds_hierarchical_kinds(self):
        topo = Topology.one_per_node(8)
        assert isinstance(make_network("fat-tree:2:2:2", topo), FatTreeNetwork)
        assert isinstance(make_network("torus:4:2", topo), TorusNetwork)
        assert isinstance(make_network("tiered:2:2", topo), TieredNetwork)
        assert isinstance(make_network("bus", topo), SharedBusEthernet)
        assert isinstance(make_network("switch", topo), SwitchedNetwork)

    def test_flat_topology_lifted_to_racks(self):
        net = make_network("tiered:2:2", Topology.one_per_node(8))
        assert net.topology.nracks == 4
        assert net.topology.nzones == 2

    def test_existing_hierarchy_preserved(self):
        topo = tiered_topo(16)
        net = make_network("tiered:99", topo)
        assert net.topology is topo

    def test_spec_oversubscription_applied(self):
        net = make_network("fat-tree:2:4:2", Topology.one_per_node(8))
        assert net.oversubscription == 4.0
