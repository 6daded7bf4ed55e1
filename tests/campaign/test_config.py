"""Campaign config validation, expansion, and seed derivation."""

import json
import re

import pytest

from repro.campaign import (
    EXECUTION_AXES,
    CampaignConfig,
    derive_seed,
    load_config,
)
from repro.util.errors import CampaignError, OptionError


def make(axes=None, fixed=None, **over):
    raw = {
        "name": "t",
        "app": "timeof_em3d",
        "axes": axes or {"mapper": ["greedy", "default"]},
    }
    if fixed is not None:
        raw["fixed"] = fixed
    raw.update(over)
    return raw


class TestValidation:
    def test_minimal_config(self):
        cfg = CampaignConfig(make())
        assert cfg.name == "t"
        assert cfg.driver.name == "timeof_em3d"
        assert cfg.n_runs == 2

    def test_campaign_error_is_an_option_error(self):
        # The CLI's exit-code-2 contract hangs on this subclassing.
        assert issubclass(CampaignError, OptionError)

    @pytest.mark.parametrize("mutate", [
        lambda r: r.pop("name"),
        lambda r: r.update(name=""),
        lambda r: r.update(name=7),
        lambda r: r.pop("app"),
        lambda r: r.update(app="nope"),
        lambda r: r.update(seed="not-an-int"),
        lambda r: r.update(seed=True),
        lambda r: r.update(bogus_key=1),
        lambda r: r.update(axes={}),
        lambda r: r.update(axes={"mapper": []}),
        lambda r: r.update(axes={"mapper": "greedy"}),
        lambda r: r.update(axes={"no_such_param": [1]}),
        lambda r: r.update(fixed={"no_such_param": 1}),
        lambda r: r.update(fixed="nope"),
        # the retired pricing-backend knob is rejected, not ignored
        lambda r: r.update(app="iterative",
                           axes={"timeof_backend": ["net"]}),
    ])
    def test_malformed_configs_raise(self, mutate):
        raw = make()
        mutate(raw)
        with pytest.raises(CampaignError):
            CampaignConfig(raw)

    def test_fixed_axes_overlap_rejected(self):
        raw = make(axes={"mapper": ["greedy"]}, fixed={"mapper": "default"})
        with pytest.raises(CampaignError, match="both"):
            CampaignConfig(raw)

    def test_not_a_dict(self):
        with pytest.raises(CampaignError):
            CampaignConfig(["nope"])


class TestExpansion:
    def test_cartesian_product(self):
        cfg = CampaignConfig(make(axes={
            "mapper": ["greedy", "default"],
            "k": [50, 100, 200],
        }))
        specs = cfg.expand()
        assert len(specs) == 6 == cfg.n_runs
        cells = {(s.cell["mapper"], s.cell["k"]) for s in specs}
        assert len(cells) == 6
        assert [s.index for s in specs] == list(range(6))

    def test_params_merge_fixed_and_cell(self):
        cfg = CampaignConfig(make(
            axes={"mapper": ["greedy"]}, fixed={"p": 3}))
        (spec,) = cfg.expand()
        assert spec.params["mapper"] == "greedy"
        assert spec.params["p"] == 3
        assert spec.cell == {"mapper": "greedy"}  # fixed stays out of cell

    def test_run_order_independent_of_axis_declaration_order(self):
        a = CampaignConfig(make(axes={"mapper": ["greedy"], "k": [1, 2]}))
        b = CampaignConfig(make(axes={"k": [1, 2], "mapper": ["greedy"]}))
        assert [s.cell for s in a.expand()] == [s.cell for s in b.expand()]


class TestSeeds:
    def test_axis_permutation_leaves_seeds_unchanged(self):
        a = CampaignConfig(make(axes={"mapper": ["greedy", "default"],
                                      "k": [50, 100]}))
        b = CampaignConfig(make(axes={"k": [50, 100],
                                      "mapper": ["greedy", "default"]}))
        sa = {tuple(sorted(s.cell.items())): s.seed for s in a.expand()}
        sb = {tuple(sorted(s.cell.items())): s.seed for s in b.expand()}
        assert sa == sb

    def test_moving_param_between_fixed_and_axis_keeps_seed(self):
        as_axis = CampaignConfig(make(axes={"mapper": ["greedy"],
                                            "k": [100]}))
        as_fixed = CampaignConfig(make(axes={"mapper": ["greedy"]},
                                       fixed={"k": 100}))
        assert as_axis.expand()[0].seed == as_fixed.expand()[0].seed

    def test_distinct_scenarios_get_distinct_seeds(self):
        cfg = CampaignConfig(make(axes={"mapper": ["greedy", "default"],
                                        "k": [50, 100]}))
        seeds = [s.seed for s in cfg.expand()]
        assert len(set(seeds)) == len(seeds)

    def test_campaign_seed_changes_every_run_seed(self):
        a = CampaignConfig(make(seed=1))
        b = CampaignConfig(make(seed=2))
        assert all(x.seed != y.seed
                   for x, y in zip(a.expand(), b.expand()))

    def test_execution_axes_excluded_from_seed(self):
        # engine chooses how to simulate, not what happens: cells
        # differing only there share the scenario seed.
        assert "engine" in EXECUTION_AXES
        base = {"policy": "never", "n": 24}
        with_engine = dict(base, engine="events")
        other_engine = dict(base, engine="threads")
        s0 = derive_seed(0, {k: v for k, v in with_engine.items()
                             if k not in EXECUTION_AXES})
        s1 = derive_seed(0, {k: v for k, v in other_engine.items()
                             if k not in EXECUTION_AXES})
        assert s0 == s1

    def test_derive_seed_is_pure(self):
        scenario = {"mapper": "greedy", "deaths": {"2": 0.04}}
        assert derive_seed(7, scenario) == derive_seed(7, scenario)


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(make()))
        cfg = load_config(path)
        assert cfg.n_runs == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(CampaignError, match="no campaign file"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(CampaignError, match="not valid JSON"):
            load_config(path)

    @pytest.mark.parametrize("fixed, axes, key", [
        # a misspelled cluster kind, once fixed and once on an axis
        ({}, {"cluster": ["paper", {"kind": "homogenous", "n": 4}]},
         "kind: unknown kind 'homogenous'"),
        ({"loads": {"1": {"kind": "sqaure", "period": 1.0}}},
         {"policy": ["never"]}, "machine 1: kind: unknown kind 'sqaure'"),
        # unknown keys used to be dropped, building the default cluster
        ({"cluster": {"kind": "homogeneous", "N": 8}}, {"policy": ["never"]},
         "N: unknown key; expected one of n, speed"),
        ({"cluster": {"kind": "random", "n": 5, "sede": 3}},
         {"policy": ["never"]}, "sede: unknown key; expected one of n, seed"),
        ({"deaths": {"7": 0.1}}, {"policy": ["never"]},
         "machine index 7 out of range"),
        ({"transient": {"drop_prob": 0.1, "drop": 0.2}},
         {"policy": ["never"]}, "bad transient spec: drop: unknown key"),
        ({"churn": [{"t": 0.0, "op": "leave", "machine": 9}]},
         {"policy": ["never"]}, "machine 9 out of range"),
    ])
    def test_malformed_world_fails_at_load(self, tmp_path, fixed, axes, key):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"name": "t", "app": "iterative",
                                    "fixed": fixed, "axes": axes}))
        with pytest.raises(CampaignError, match=re.escape(key)):
            load_config(path)

    def test_malformed_world_exits_two_before_any_cell(self, tmp_path,
                                                      capsys):
        from repro.cli import main

        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "name": "t", "app": "iterative",
            "axes": {"cluster": ["paper", {"kind": "homogenous"}]}}))
        out = tmp_path / "out"
        assert main(["campaign", "run", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()
