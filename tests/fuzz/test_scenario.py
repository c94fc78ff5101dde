"""Scenario/ClusterModel data model: validation, hashing, persistence."""

import pytest

from repro.faults.schedule import FaultSchedule, NodeSlowdown
from repro.fuzz import (
    FUZZ_SCENARIO_KIND,
    NETWORK_KINDS,
    NODE_PALETTE,
    ClusterModel,
    Scenario,
    ScenarioError,
    valid_scenario_network,
)


class TestClusterModel:
    def test_nranks_counts_cpus_per_node(self):
        model = ClusterModel(groups=(("server", 1), ("blade", 3)))
        # server = 4-way SMP, blade = 1 CPU each.
        assert model.nranks == 4 + 3

    def test_build_realizes_real_cluster_spec(self, tiny_cluster):
        spec = tiny_cluster.build()
        assert spec.nranks == tiny_cluster.nranks
        assert spec.name == tiny_cluster.name
        # Marked speeds come from the ordinary machine model.
        from repro.experiments.runner import marked_speed_of

        marked = marked_speed_of(spec)
        assert len(marked.speeds) == spec.nranks
        assert all(s > 0 for s in marked.speeds)

    def test_unknown_group_rejected(self):
        with pytest.raises(ScenarioError):
            ClusterModel(groups=(("cray", 1),))

    def test_bad_counts_rejected(self):
        with pytest.raises(ScenarioError):
            ClusterModel(groups=(("blade", 0),))
        with pytest.raises(ScenarioError):
            ClusterModel(groups=(("blade", True),))

    def test_bad_network_rejected(self):
        with pytest.raises(ScenarioError):
            ClusterModel(groups=(("blade", 2),), network="zero")

    def test_single_rank_cluster_rejected(self):
        with pytest.raises(ScenarioError):
            ClusterModel(groups=(("blade", 1),))

    def test_normalized_merges_and_orders_by_palette(self):
        messy = ClusterModel(
            groups=(("blade", 1), ("server", 1), ("blade", 2))
        )
        norm = messy.normalized()
        assert norm.groups == (("server", 1), ("blade", 3))
        assert norm.nranks == messy.nranks
        # Already-normal models return themselves.
        assert norm.normalized() is norm

    def test_payload_round_trip(self, tiny_cluster):
        back = ClusterModel.from_payload(tiny_cluster.to_payload())
        assert back == tiny_cluster

    def test_palette_and_networks_are_sane(self):
        assert set(NODE_PALETTE) >= {"server", "blade", "v210", "generic"}
        assert "zero" not in NETWORK_KINDS


class TestScenario:
    def test_alias_resolution(self, tiny_cluster):
        scenario = Scenario(app="gaussian", n=64, cluster=tiny_cluster)
        assert scenario.app == "ge"

    def test_unknown_app_rejected(self, tiny_cluster):
        with pytest.raises(ScenarioError):
            Scenario(app="linpack", n=64, cluster=tiny_cluster)

    def test_small_n_rejected(self, tiny_cluster):
        with pytest.raises(ScenarioError):
            Scenario(app="ge", n=1, cluster=tiny_cluster)

    def test_fft_needs_power_of_two(self, tiny_cluster):
        with pytest.raises(ScenarioError):
            Scenario(app="fft", n=96, cluster=tiny_cluster)
        Scenario(app="fft", n=128, cluster=tiny_cluster)  # fine

    def test_schedule_must_fit_cluster(self, tiny_cluster):
        schedule = FaultSchedule((
            NodeSlowdown(rank=99, onset=0.0, duration=None, severity=0.5),
        ))
        with pytest.raises(ScenarioError):
            Scenario(app="ge", n=64, cluster=tiny_cluster,
                     schedule=schedule)

    def test_describe_mentions_everything(self, tiny_cluster):
        schedule = FaultSchedule((
            NodeSlowdown(rank=0, onset=0.0, duration=None, severity=0.5),
        ))
        text = Scenario(
            app="ge", n=64, cluster=tiny_cluster, schedule=schedule,
        ).describe()
        assert "ge N=64" in text
        assert "1 fault event(s)" in text

    def test_payload_round_trip_and_hash_stability(self, tiny_cluster):
        schedule = FaultSchedule((
            NodeSlowdown(rank=1, onset=0.5, duration=2.0, severity=0.3),
        ))
        scenario = Scenario(
            app="mm", n=48, cluster=tiny_cluster, schedule=schedule, seed=7,
        )
        back = Scenario.from_payload(scenario.to_payload())
        assert back == scenario
        assert back.scenario_hash() == scenario.scenario_hash()
        assert len(scenario.scenario_hash()) == 16

    def test_payload_without_wrapper_key_loads(self, tiny_cluster):
        scenario = Scenario(app="ge", n=16, cluster=tiny_cluster)
        payload = scenario.to_payload()
        assert payload["network_wrapper"] is None
        del payload["network_wrapper"]
        assert Scenario.from_payload(payload) == scenario

    @pytest.mark.parametrize("change", [
        {"app": None},
        {"n": "abc"},
        {"n": 16.9},
        {"n": 16.0},
        {"seed": "7"},
        {"cluster": [1]},
        {"cluster": {"groups": [["blade"]]}},
        {"cluster": {"groups": [["blade", 2.5]]}},
        {"schedule": None},
        {"schedule": [1]},
        {"schedule": {"events": [{"type": "meteor"}]}},
        {"network_wrapper": 3},
        {"network_wrapper": False},
        {"network_wrapper": "warp"},
    ], ids=["no-app", "n-str", "n-fraction", "n-float", "seed-str", "cluster-list",
            "group-no-count", "count-fraction", "no-schedule",
            "schedule-list", "unknown-event", "wrapper-int", "wrapper-bool",
            "wrapper-name"])
    def test_malformed_payload_raises_scenario_error(self, tiny_cluster,
                                                     change):
        payload = Scenario(app="ge", n=16, cluster=tiny_cluster).to_payload()
        payload.update(change)
        payload = {k: v for k, v in payload.items() if v is not None}
        with pytest.raises(ScenarioError):
            Scenario.from_payload(payload)

    def test_hash_is_content_sensitive(self, clean_scenario):
        other = Scenario(
            app=clean_scenario.app, n=clean_scenario.n * 2,
            cluster=clean_scenario.cluster,
        )
        assert other.scenario_hash() != clean_scenario.scenario_hash()

    def test_save_load_document(self, clean_scenario, tmp_path):
        import json

        path = tmp_path / "scenario.json"
        clean_scenario.save(path)
        assert Scenario.load(path) == clean_scenario
        raw = json.loads(path.read_text())
        assert raw["kind"] == FUZZ_SCENARIO_KIND
        assert raw["metadata"]["scenario_hash"] == \
            clean_scenario.scenario_hash()

    def test_with_schedule_preserves_identity_fields(self, clean_scenario):
        schedule = FaultSchedule((
            NodeSlowdown(rank=0, onset=0.0, duration=1.0, severity=0.5),
        ))
        replaced = clean_scenario.with_schedule(schedule)
        assert replaced.schedule == schedule
        assert (replaced.app, replaced.n, replaced.cluster) == (
            clean_scenario.app, clean_scenario.n, clean_scenario.cluster
        )


class TestHierarchicalNetworks:
    def test_hierarchical_spec_builds_and_runs(self):
        from repro.fuzz import HIERARCHICAL_NETWORK_SPECS
        from repro.network.hierarchy import FatTreeNetwork

        assert all(
            valid_scenario_network(s) for s in HIERARCHICAL_NETWORK_SPECS
        )
        model = ClusterModel(
            groups=(("blade", 4),), network="fat-tree:2:2:2"
        )
        cluster = model.build()
        assert isinstance(cluster.build_network(), FatTreeNetwork)

    def test_zero_network_rejected_for_scenarios(self):
        assert not valid_scenario_network("zero")
        with pytest.raises(ScenarioError):
            ClusterModel(groups=(("blade", 2),), network="zero")

    def test_space_accepts_hierarchical_networks(self):
        from repro.fuzz.generator import ScenarioGenerator, ScenarioSpace

        space = ScenarioSpace(networks=("tiered:2",))
        scenario = ScenarioGenerator(space, seed=7).scenario(0)
        assert scenario.cluster.network == "tiered:2"
        assert scenario.cluster.build().nranks >= 2

    def test_default_sampling_set_stays_flat(self):
        # Corpus seed stability: the default draw set must not grow.
        assert NETWORK_KINDS == ("bus", "switch")
