"""The campaign runner and the shipped drivers, end to end."""

import pathlib

import pytest

from repro.campaign import CampaignConfig, load_config, run_campaign

CAMPAIGNS = pathlib.Path(__file__).parent.parent.parent \
    / "examples" / "campaigns"


def run(raw):
    return run_campaign(CampaignConfig(raw))


class TestRunner:
    def test_every_cell_gets_a_row(self):
        w = run({
            "name": "t", "app": "timeof_em3d",
            "fixed": {"p": 3, "total_nodes": 600},
            "axes": {"mapper": ["greedy", "default"]},
        })
        assert len(w.rows) == 2
        assert all(r["status"] == "ok" for r in w.rows)
        assert all(r["metrics"]["predicted_time"] > 0 for r in w.rows)

    def test_library_error_becomes_typed_error_row(self):
        # p larger than the cluster is a scenario-level CampaignError
        # raised inside the driver: the sweep records it and continues.
        w = run({
            "name": "t", "app": "iterative",
            "fixed": {"cluster": {"kind": "uniform", "speeds": [100.0] * 3},
                      "n": 12, "niter": 4, "chunk": 4},
            "axes": {"p": [2, 99]},
        })
        by_p = {r["cell"]["p"]: r for r in w.rows}
        assert by_p[2]["status"] == "ok"
        assert by_p[99]["status"] == "error"
        assert "CampaignError" in by_p[99]["error"]

    def test_writes_jsonl_and_summary(self, tmp_path):
        cfg = CampaignConfig({
            "name": "t", "app": "timeof_em3d",
            "fixed": {"p": 3, "total_nodes": 600},
            "axes": {"mapper": ["greedy"]},
        })
        run_campaign(cfg, tmp_path / "out")
        assert (tmp_path / "out" / "results.jsonl").exists()
        assert (tmp_path / "out" / "summary.json").exists()


class TestJacobiFTDriver:
    def test_fault_free_and_death_cells(self):
        w = run({
            "name": "t", "app": "jacobi_ft",
            "fixed": {"cluster": {"kind": "uniform", "speeds": [100.0] * 4},
                      "n": 18, "niter": 12},
            "axes": {"deaths": [None, {"2": 0.04}]},
        })
        free, dead = w.rows
        assert free["metrics"]["repairs"] == 0
        assert free["metrics"]["bitwise_ok"] is True
        assert dead["metrics"]["repairs"] >= 1
        assert dead["metrics"]["bitwise_ok"] is True
        assert 2 in dead["metrics"]["dead_ranks"]

    def test_host_death_is_typed_not_a_crash(self):
        w = run({
            "name": "t", "app": "jacobi_ft",
            "fixed": {"cluster": {"kind": "uniform", "speeds": [100.0] * 4},
                      "n": 18, "niter": 12},
            "axes": {"deaths": [{"0": 0.03}]},
        })
        (row,) = w.rows
        assert row["status"] == "ok"          # run completed, outcome typed
        assert row["metrics"]["recovered"] is False
        assert row["metrics"]["error"]


class TestIterativeDriver:
    CHURN_FIXED = {
        "cluster": {"kind": "uniform", "speeds": [100, 40, 40, 40, 40, 400]},
        "n": 24, "niter": 24, "p": 4, "chunk": 4,
        "churn": [{"t": 0.0, "op": "leave", "machine": 5},
                  {"t": 0.02, "op": "join", "machine": 5}],
    }

    def test_churn_campaign_completes_typed_for_every_policy(self):
        w = run({
            "name": "t", "app": "iterative", "fixed": self.CHURN_FIXED,
            "axes": {"policy": ["never", "on-failure", "periodic"]},
        })
        assert len(w.rows) == 3
        for r in w.rows:
            assert r["status"] == "ok"
            assert r["metrics"]["outcome"] == "done"
            assert r["metrics"]["iterations"] == 24
            assert r["metrics"]["churn_applied"] == 2

    def test_periodic_reselection_beats_never_under_churn(self):
        # The dynamic-world acceptance scenario: a 4x-fast machine is
        # absent at the initial selection and joins early.  Periodic
        # re-selection drafts it; "never" is stuck with the slow group.
        w = run({
            "name": "t", "app": "iterative", "fixed": self.CHURN_FIXED,
            "axes": {"policy": ["never", "periodic"]},
        })
        by = {r["cell"]["policy"]: r["metrics"] for r in w.rows}
        assert by["periodic"]["reselections"] > 0
        assert by["never"]["reselections"] == 0
        assert by["periodic"]["makespan"] < by["never"]["makespan"]
        assert 5 in (by["periodic"]["final_group"] or [])
        assert 5 not in (by["never"]["final_group"] or [])

    def test_on_failure_policy_repairs_through_a_death(self):
        w = run({
            "name": "t", "app": "iterative",
            "fixed": {"cluster": {"kind": "uniform", "speeds": [100.0] * 5},
                      "n": 18, "niter": 12, "p": 4, "chunk": 4,
                      "deaths": {"2": 0.05}},
            "axes": {"policy": ["on-failure", "never"]},
        })
        by = {r["cell"]["policy"]: r["metrics"] for r in w.rows}
        assert by["on-failure"]["outcome"] == "done"
        assert by["on-failure"]["repairs"] >= 1
        # "never" hits the same death and ends with a typed failure.
        assert by["never"]["outcome"] == "failed"
        assert by["never"]["error"]

    def test_join_of_failed_machine_is_skipped_typed(self):
        # Machine 2 dies, then is scheduled to "join": impossible now —
        # the event must be skipped (counted), never crash the cell.
        w = run({
            "name": "t", "app": "iterative",
            "fixed": {"cluster": {"kind": "uniform", "speeds": [100.0] * 5},
                      "n": 18, "niter": 12, "p": 3, "chunk": 4,
                      "deaths": {"2": 0.02},
                      "churn": [{"t": 0.05, "op": "join", "machine": 2}]},
            "axes": {"policy": ["on-failure"]},
        })
        (row,) = w.rows
        assert row["status"] == "ok"
        assert row["metrics"]["outcome"] == "done"
        assert row["metrics"]["churn_skipped"] == 1

    def test_time_varying_load_slows_the_never_policy(self):
        # A heavy square-wave load on a selected machine: the world got
        # slower than the initial selection assumed.
        base = {"cluster": {"kind": "uniform", "speeds": [100.0] * 4},
                "n": 24, "niter": 16, "p": 4, "chunk": 4}
        quiet = run({"name": "t", "app": "iterative", "fixed": base,
                     "axes": {"policy": ["never"]}})
        loaded = run({"name": "t", "app": "iterative",
                      "fixed": {**base, "loads": {
                          "1": {"kind": "constant", "share": 0.25}}},
                      "axes": {"policy": ["never"]}})
        assert loaded.rows[0]["metrics"]["makespan"] \
            > quiet.rows[0]["metrics"]["makespan"]


class TestShippedCampaignFiles:
    @pytest.mark.parametrize("name", [
        "mapper_ablation", "ft_sweep", "churn_reselect", "ci_smoke"])
    def test_configs_load_and_expand(self, name):
        cfg = load_config(CAMPAIGNS / f"{name}.json")
        specs = cfg.expand()
        assert len(specs) == cfg.n_runs > 1

    def test_mapper_ablation_matches_the_bench_bitwise(self):
        # The campaign must reproduce the public API's predicted times
        # exactly.
        cfg = load_config(CAMPAIGNS / "mapper_ablation.json")
        w = run_campaign(cfg)
        by = {r["cell"]["mapper"]: r["metrics"]["predicted_time"]
              for r in w.rows}
        from repro.apps.em3d import bind_em3d_model, generate_problem
        from repro.cluster import paper_network
        from repro.core import NetworkModel
        from repro.core.mapper import resolve_mapper
        problem = generate_problem(p=7, total_nodes=21_000, seed=5,
                                   boundary_fraction=0.3)
        model = bind_em3d_model(problem, 100)
        cluster = paper_network()
        netmodel = NetworkModel(cluster, list(range(cluster.size)))
        for name in ("greedy", "refine", "default", "exhaustive"):
            mapping = resolve_mapper(name).select(
                model, netmodel, list(range(cluster.size)),
                {model.parent_index(): 0})
            assert by[name] == mapping.time, name

    def test_ci_smoke_matches_committed_baseline(self):
        from repro.campaign import check_against_baseline, load_baseline
        cfg = load_config(CAMPAIGNS / "ci_smoke.json")
        w = run_campaign(cfg)
        baseline = load_baseline(
            pathlib.Path(__file__).parent / "golden" / "campaign_smoke.json")
        assert check_against_baseline(w.rows, baseline) == []


class TestEm3dReconDriver:
    RAW = {
        "name": "t", "app": "em3d_recon",
        "fixed": {"cluster": {"kind": "uniform",
                              "speeds": [100.0, 150.0, 80.0]},
                  "p": 3, "total_nodes": 900, "niter": 3, "k": 20,
                  "procs_per_machine": 1,
                  "loads": {"1": {"kind": "constant", "share": 0.5}}},
        "axes": {"recon": [False, True]},
    }

    def test_ablation_cells_complete_with_matching_checksums(self):
        w = run(self.RAW)
        assert len(w.rows) == 2
        assert all(r["status"] == "ok" for r in w.rows)
        for r in w.rows:
            m = r["metrics"]
            assert m["checksum_ok"] is True
            assert m["mpi_time"] > 0 and m["hmpi_time"] > 0
            assert m["predicted_time"] > 0
            assert len(m["group_machines"]) >= 1

    def test_same_seed_same_rows(self):
        assert run(self.RAW).jsonl() == run(self.RAW).jsonl()

    def test_stochastic_load_shared_by_both_variants(self):
        # A random-walk load is drawn from the per-cell scenario seed and
        # re-expanded for the MPI baseline and the HMPI run alike, so the
        # speedup compares like against like — and stays reproducible.
        raw = {
            "name": "t", "app": "em3d_recon",
            "fixed": {"cluster": {"kind": "uniform",
                                  "speeds": [100.0, 100.0, 100.0]},
                      "p": 3, "total_nodes": 900, "niter": 3, "k": 20,
                      "procs_per_machine": 1,
                      "loads": {"0": {"kind": "random_walk",
                                      "interval": 0.5}}},
            "axes": {"recon": [True]},
        }
        assert run(raw).jsonl() == run(raw).jsonl()

    def test_example_config_expands(self):
        config = load_config(CAMPAIGNS / "recon_ablation.json")
        specs = config.expand()
        assert [s.cell["recon"] for s in specs] == [False, True]


class TestGroupsizeAmdahlDriver:
    """Automatic group sizing through the campaign harness."""

    def test_serial_fraction_shrinks_the_tuned_group(self):
        w = run({
            "name": "t", "app": "groupsize_amdahl",
            "fixed": {"cluster": "paper", "max_p": 9},
            "axes": {"combine_cost": [0.0, 3.0, 10.0, 30.0]},
        })
        assert all(r["status"] == "ok" for r in w.rows)
        chosen = [r["metrics"]["tuned_p"] for r in w.rows]
        # Monotone trend from the bench: more serial work, fewer members.
        assert all(a >= b for a, b in zip(chosen, chosen[1:]))
        assert chosen[0] > chosen[-1]
        for r in w.rows:
            m = r["metrics"]
            assert m["predicted_time"] <= m["all_machines_time"] + 1e-9
            assert m["measured_time"] == pytest.approx(
                m["predicted_time"], rel=0.05)

    def test_matches_the_bench_prediction_bitwise(self):
        # Same family, same sweep, same mapper: the campaign cell must
        # reproduce tune_group_size exactly.
        w = run({
            "name": "t", "app": "groupsize_amdahl",
            "fixed": {"cluster": "paper", "max_p": 9},
            "axes": {"combine_cost": [10.0]},
        })
        from repro.campaign.drivers import _amdahl_family
        from repro.cluster import paper_network
        from repro.core import run_hmpi
        from repro.core.autotune import tune_group_size

        def app(hmpi):
            if hmpi.is_host():
                sweep = tune_group_size(
                    hmpi, _amdahl_family(900.0, 64 * 1024.0, 10.0),
                    range(1, 10))
                return sweep.best_p, sweep.best_time
            return None

        best_p, best_time = run_hmpi(app, paper_network()).results[0]
        m = w.rows[0]["metrics"]
        assert m["tuned_p"] == best_p
        assert m["predicted_time"] == best_time  # bitwise

    def test_bad_max_p_is_a_typed_error_row(self):
        w = run({
            "name": "t", "app": "groupsize_amdahl",
            "fixed": {"cluster": "paper", "max_p": 99},
            "axes": {"combine_cost": [0.0]},
        })
        assert w.rows[0]["status"] == "error"
        assert "max_p" in w.rows[0]["error"]

    def test_example_config_expands(self):
        config = load_config(CAMPAIGNS / "groupsize_ablation.json")
        specs = config.expand()
        assert [s.cell["combine_cost"] for s in specs] == \
            [0.0, 3.0, 10.0, 30.0]


class TestTopologyAxis:
    """Topology as a sweepable campaign axis (flat vs hierarchical)."""

    RAW = {
        "name": "t", "app": "timeof_em3d",
        "fixed": {"p": 7, "total_nodes": 2100, "problem_seed": 5,
                  "k": 100, "boundary_fraction": 0.3},
        "axes": {"cluster": [
            "paper",
            {"kind": "topology", "preset": "two_site",
             "machines_per_site": 4},
            {"kind": "topology", "preset": "clusters_of_clusters",
             "sites": 2, "subnets_per_site": 2, "machines_per_subnet": 2},
        ]},
    }

    def test_cells_sweep_flat_vs_hierarchical_worlds(self):
        w = run(self.RAW)
        assert [r["status"] for r in w.rows] == ["ok"] * 3
        flat, two_site, coc = (r["metrics"]["predicted_time"]
                               for r in w.rows)
        assert flat > 0 and two_site > 0 and coc > 0
        # The axis really swept different worlds: the heterogeneous flat
        # mesh and the homogeneous two-site hierarchy select differently.
        assert flat != two_site

    def test_topology_cells_are_reproducible(self):
        assert run(self.RAW).jsonl() == run(self.RAW).jsonl()
