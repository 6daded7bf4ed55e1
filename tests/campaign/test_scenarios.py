"""Scenario builders: clusters, loads, faults, churn specs."""

import numpy as np
import pytest

from repro.campaign import (
    build_cluster,
    apply_scenario,
    normalize_churn,
)
from repro.cluster.load import (
    ConstantLoad,
    DiurnalLoad,
    RandomWalkLoad,
    SquareWaveLoad,
    StepLoad,
)
from repro.util.errors import CampaignError


def rng():
    return np.random.default_rng(0)


def build_load_model(spec, rng):
    """Machine 1's load model after ``apply_scenario`` installs ``spec``."""
    c = build_cluster({"kind": "uniform", "speeds": [100.0] * 2})
    return apply_scenario(c, rng, loads={"1": spec}).machines[1].load


class TestBuildCluster:
    def test_presets(self):
        assert build_cluster("paper").size == 9
        assert build_cluster("two_site").topology is not None

    def test_uniform(self):
        c = build_cluster({"kind": "uniform", "speeds": [10, 20]})
        assert [m.speed for m in c.machines] == [10.0, 20.0]

    def test_homogeneous_and_random(self):
        assert build_cluster({"kind": "homogeneous", "n": 3}).size == 3
        a = build_cluster({"kind": "random", "n": 4, "seed": 1})
        b = build_cluster({"kind": "random", "n": 4, "seed": 1})
        assert [m.speed for m in a.machines] == [m.speed for m in b.machines]

    def test_topology_two_site(self):
        c = build_cluster({"kind": "topology", "preset": "two_site",
                           "machines_per_site": 3, "speed": 50.0})
        assert c.size == 6
        assert c.topology is not None
        assert all(m.speed == 50.0 for m in c.machines)

    def test_topology_clusters_of_clusters(self):
        c = build_cluster({
            "kind": "topology", "preset": "clusters_of_clusters",
            "sites": 2, "subnets_per_site": 2, "machines_per_subnet": 2,
            "speeds": [10, 20, 30, 40, 50, 60, 70, 80]})
        assert c.size == 8
        assert [m.speed for m in c.machines] == [
            10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0]
        # Three levels: the DCA of two sites is the WAN root.
        assert c.topology.root.kind == "site"

    def test_topology_defaults_match_the_presets(self):
        from repro.cluster.presets import clusters_of_clusters, two_site_network
        a = build_cluster({"kind": "topology", "preset": "two_site"})
        assert a.size == two_site_network().size
        b = build_cluster({"kind": "topology",
                           "preset": "clusters_of_clusters"})
        assert b.size == clusters_of_clusters().size

    @pytest.mark.parametrize("bad", [
        "no_such_preset",
        42,
        {"kind": "nope"},
        {"kind": "uniform", "speeds": []},
        {"kind": "uniform"},
        {"kind": "uniform", "speeds": ["x"]},
        {"kind": "topology"},
        {"kind": "topology", "preset": "nope"},
        {"kind": "topology", "preset": "two_site", "sites": 3},
        {"kind": "topology", "preset": "two_site", "machines_per_site": 1},
        {"kind": "topology", "preset": "clusters_of_clusters",
         "speeds": []},
        {"kind": "topology", "preset": "clusters_of_clusters",
         "speeds": [100.0]},
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(CampaignError):
            build_cluster(bad)


class TestBuildLoadModel:
    def test_kinds(self):
        assert isinstance(
            build_load_model({"kind": "constant", "share": 0.5}, rng()),
            ConstantLoad)
        assert isinstance(
            build_load_model({"kind": "step", "steps": [[1.0, 0.5]]}, rng()),
            StepLoad)
        assert isinstance(
            build_load_model({"kind": "square", "period": 2.0}, rng()),
            SquareWaveLoad)
        assert isinstance(
            build_load_model({"kind": "random_walk", "interval": 1.0,
                              "seed": 3}, rng()),
            RandomWalkLoad)
        assert isinstance(
            build_load_model({"kind": "diurnal"}, rng()),
            DiurnalLoad)

    def test_diurnal_spec_fields(self):
        load = build_load_model(
            {"kind": "diurnal", "day": 12.0, "phase": 0.5,
             "profile": [[0.0, 1.0], [0.5, 0.5]]}, rng())
        assert load.day == 12.0
        assert load.share_at(0.0) == 0.5   # phase=0.5 starts mid-day
        assert load.share_at(6.0) == 1.0

    def test_diurnal_is_deterministic_without_rng(self):
        a = build_load_model({"kind": "diurnal"}, np.random.default_rng(1))
        b = build_load_model({"kind": "diurnal"}, np.random.default_rng(2))
        assert [a.share_at(t) for t in (0.0, 9.0, 13.0)] \
            == [b.share_at(t) for t in (0.0, 9.0, 13.0)]

    def test_random_walk_seed_from_run_rng_is_deterministic(self):
        a = build_load_model({"kind": "random_walk", "interval": 1.0},
                             np.random.default_rng(5))
        b = build_load_model({"kind": "random_walk", "interval": 1.0},
                             np.random.default_rng(5))
        assert [a.share_at(t) for t in (0.5, 1.5, 2.5)] \
            == [b.share_at(t) for t in (0.5, 1.5, 2.5)]

    @pytest.mark.parametrize("bad", [
        {"kind": "nope"},
        {"kind": "square"},                      # missing period
        {"kind": "random_walk"},                 # missing interval
        {"kind": "constant", "share": 2.0},
        {"kind": "diurnal", "day": -1.0},
        {"kind": "diurnal", "profile": [[0.2, 0.5]]},
        "not-a-dict",
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(CampaignError):
            build_load_model(bad, rng())


class TestApplyScenario:
    def test_deaths_and_loads(self):
        c = build_cluster({"kind": "uniform", "speeds": [100.0] * 3})
        apply_scenario(c, rng(), deaths={"2": 0.04},
                       loads={"1": {"kind": "constant", "share": 0.5}})
        assert c.machines[2].fail_at == 0.04
        assert c.machines[1].load.share_at(0.0) == 0.5

    def test_transient_attaches_with_derived_seed(self):
        c = build_cluster({"kind": "uniform", "speeds": [100.0] * 3})
        apply_scenario(c, np.random.default_rng(9),
                       transient={"drop_prob": 0.2})
        assert c.transient_faults is not None
        d = build_cluster({"kind": "uniform", "speeds": [100.0] * 3})
        apply_scenario(d, np.random.default_rng(9),
                       transient={"drop_prob": 0.2})
        assert c.transient_faults.seed == d.transient_faults.seed

    @pytest.mark.parametrize("kwargs", [
        {"deaths": {"9": 0.1}},                  # out of range
        {"deaths": {"x": 0.1}},                  # not an index
        {"transient": {"drop_prob": 7.0}},       # invalid config
        {"loads": {"0": {"kind": "nope"}}},
    ])
    def test_bad_specs_raise(self, kwargs):
        c = build_cluster({"kind": "uniform", "speeds": [100.0] * 3})
        with pytest.raises(CampaignError):
            apply_scenario(c, rng(), **kwargs)


class TestNormalizeChurn:
    def test_sorted_by_time(self):
        events = normalize_churn([
            {"t": 0.5, "op": "join", "machine": 2},
            {"t": 0.1, "op": "leave", "machine": 2},
        ], 4)
        assert [e.op for e in events] == ["leave", "join"]

    def test_none_is_empty(self):
        assert normalize_churn(None, 4) == []

    @pytest.mark.parametrize("bad", [
        "not-a-list",
        [{"t": 0.1, "op": "leave"}],                        # missing key
        [{"t": 0.1, "op": "explode", "machine": 1}],
        [{"t": 0.1, "op": "leave", "machine": 9}],          # out of range
        [{"t": 0.1, "op": "leave", "machine": 0}],          # host machine
        [{"t": -1.0, "op": "leave", "machine": 1}],
        [{"t": "x", "op": "leave", "machine": 1}],
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(CampaignError):
            normalize_churn(bad, 4)
