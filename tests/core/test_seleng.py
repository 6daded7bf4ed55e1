"""The compiled selection engine: cache semantics, stats, symmetry bounds."""

import math

import numpy as np
import pytest

from repro.cluster import (
    homogeneous_network,
    multiprotocol_network,
    paper_network,
    two_site_network,
)
from repro.cluster.link import WAN_10MBIT, Link
from repro.core.estimator import estimate_time
from repro.core.mapper import ExhaustiveMapper, GreedyMapper
from repro.core.netmodel import NetworkModel
from repro.core.runtime import HMPIRuntimeState, run_hmpi
from repro.core.seleng import (
    SelectionStats,
    compile_trace,
    evaluate_mappings,
)
from repro.perfmodel.builder import MatrixModel
from repro.util.errors import MappingError


def make_model(nproc=3, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    node = rng.uniform(10.0, 100.0, size=nproc) * scale
    links = rng.uniform(1e3, 1e5, size=(nproc, nproc))
    np.fill_diagonal(links, 0.0)
    return MatrixModel(node, links)


def make_state(cluster=None):
    cluster = cluster or paper_network()
    netmodel = NetworkModel(cluster, list(range(cluster.size)))
    return HMPIRuntimeState(netmodel)


class TestCompiledTrace:
    def test_compile_is_cached_on_model(self):
        model = make_model()
        assert compile_trace(model) is compile_trace(model)

    def test_zero_and_self_transfers_dropped(self):
        links = np.zeros((3, 3))
        links[0, 1] = 4096.0

        def scheme(v):
            v.transfer(100.0, 0, 1)   # real
            v.transfer(100.0, 1, 2)   # zero bytes
            v.transfer(100.0, 2, 2)   # self
            v.compute(100.0, 0)

        model = MatrixModel(np.ones(3), links, scheme=scheme)
        ct = compile_trace(model)
        assert ct.npairs == 1
        assert ct.nevents == 2  # one transfer + one compute


class TestSelectionStats:
    def test_counters_and_reset(self):
        stats = SelectionStats()
        model = make_model()
        state = make_state()
        evaluate_mappings(model, state.netmodel, [(0, 1, 2), (3, 4, 5)], stats)
        assert stats.evaluations == 2
        assert stats.batches == 1
        stats.reset()
        assert stats.as_dict() == {
            "cache_hits": 0, "cache_misses": 0, "evaluations": 0,
            "batches": 0, "symmetry_skips": 0,
        }

    def test_mapper_select_reports_evaluations(self):
        state = make_state()
        stats = SelectionStats()
        GreedyMapper().select(
            make_model(), state.netmodel,
            list(range(state.netmodel.nprocs)), {0: 0}, stats=stats,
        )
        assert stats.evaluations >= 1


class TestSelectionCache:
    def test_repeat_select_hits_cache(self):
        state = make_state()
        model = make_model()
        first = state.select(model)
        again = state.select(model)
        assert again is first
        assert state.selection_stats.cache_hits == 1
        assert state.selection_stats.cache_misses == 1

    def test_speed_update_invalidates(self):
        state = make_state()
        model = make_model()
        before = state.select(model)
        # Slow the busiest machine far down: stale prediction would be wrong.
        for m in set(before.machines):
            state.netmodel.update_speed(m, 1.0)
        after = state.select(model)
        assert state.selection_stats.cache_misses == 2
        assert after.time != pytest.approx(before.time)
        assert after.time == pytest.approx(
            estimate_time(model, state.netmodel, after.machines)
        )

    @staticmethod
    def assert_edit_reprices(cluster, model, edit):
        """Warm, edit the cluster, then the next select must miss and
        answer exactly what a cold runtime over the edited cluster does."""
        state = make_state(cluster)
        warm = state.select(model)
        edit(cluster, warm)
        info = {}
        after = state.select(model, info=info)
        fresh = make_state(cluster).select(model)
        assert fresh != warm  # the edit changes the answer
        assert info["cache"] == "miss"
        assert after == fresh  # bitwise: processes, machines and time

    def test_set_topology_reprices(self):
        self.assert_edit_reprices(two_site_network(), make_model(),
                                  lambda c, _: c.set_topology(None))

    def test_set_link_reprices(self):
        self.assert_edit_reprices(
            paper_network(), make_model(),
            lambda c, warm: c.set_link(warm.machines[0], warm.machines[1],
                                       Link.single(WAN_10MBIT)))

    def test_pin_all_reprices(self):
        self.assert_edit_reprices(multiprotocol_network(),
                                  make_model(scale=1e-3),
                                  lambda c, _: c.pin_all("tcp-100mbit"))

    def test_unpin_all_reprices(self):
        cluster = multiprotocol_network()
        cluster.pin_all("tcp-100mbit")
        self.assert_edit_reprices(cluster, make_model(scale=1e-3),
                                  lambda c, _: c.unpin_all())

    def test_string_spec_shares_cache_entry(self):
        """Registry strings resolve to a stable identity, so they cache."""
        state = make_state()
        model = make_model()
        state.select(model, "greedy")
        state.select(model, "greedy")
        assert state.selection_stats.cache_hits == 1

    def test_distinct_instances_do_not_share(self):
        state = make_state()
        model = make_model()
        state.select(model, GreedyMapper())
        state.select(model, GreedyMapper())
        assert state.selection_stats.cache_hits == 0
        assert state.selection_stats.cache_misses == 2

    def test_lru_bound(self):
        state = make_state()
        models = [make_model(seed=i) for i in range(state.SELECTION_CACHE_SIZE + 6)]
        for m in models:
            state.select(m, "greedy")
        assert len(state._selection_cache) <= state.SELECTION_CACHE_SIZE
        # The oldest entry was evicted: selecting it again is a miss.
        misses = state.selection_stats.cache_misses
        state.select(models[0], "greedy")
        assert state.selection_stats.cache_misses == misses + 1


class TestCacheAcrossRecon:
    def test_recon_refreshes_predictions(self, paper_cluster):
        """timeof answers from cache until recon bumps the speed epoch."""
        model = make_model(nproc=3, seed=3)

        def main(hmpi):
            if hmpi.is_host():
                t1 = hmpi.timeof(model)
                t2 = hmpi.timeof(model)
            hmpi.recon(volume=2.0)  # collective over the world
            if not hmpi.is_host():
                return None
            t3 = hmpi.timeof(model)
            s = hmpi.selection_stats
            return t1, t2, t3, s.cache_hits, s.cache_misses

        # Deliberately wrong initial speeds: recon measures the real ones,
        # so the post-recon prediction must differ.
        wrong = [s * 3.0 for s in paper_cluster.speeds()]
        res = run_hmpi(main, paper_cluster, initial_speeds=wrong)
        t1, t2, t3, hits, misses = res.results[0]
        assert t2 == t1          # served from cache
        assert hits == 1
        assert misses == 2       # initial miss + post-recon miss
        assert t3 != pytest.approx(t1)  # stale prediction was not reused


class TestExhaustiveSymmetry:
    def test_skips_counted_and_result_optimal(self):
        cluster = homogeneous_network(5)
        netmodel = NetworkModel(cluster, list(range(5)))
        model = make_model(nproc=3, seed=1)
        candidates = list(range(5))

        stats = SelectionStats()
        sym = ExhaustiveMapper(reduce_symmetry=True).select(
            model, netmodel, candidates, {0: 0}, stats=stats
        )
        full = ExhaustiveMapper(reduce_symmetry=False).select(
            model, netmodel, candidates, {0: 0}
        )
        assert stats.symmetry_skips > 0
        assert sym.time == pytest.approx(full.time)
        # On a homogeneous cluster all assignments price alike: symmetry
        # collapses 4P2 = 12 permutations into one evaluation.
        assert stats.evaluations + stats.symmetry_skips == 12

    def test_pruned_permutations_counted_not_visited(self):
        cluster = homogeneous_network(8)
        netmodel = NetworkModel(cluster, list(range(8)))
        model = make_model(nproc=4, seed=2)
        stats = SelectionStats()
        ExhaustiveMapper().select(
            model, netmodel, list(range(8)), {0: 0}, stats=stats
        )
        assert stats.evaluations == 1
        assert stats.symmetry_skips == math.perm(7, 3) - 1

    def test_large_symmetric_pool_is_solved(self):
        """16 machines in three speed classes (10+3+3), EM3D p=9: the
        pruned permutations are arithmetic, so the optimum is reachable."""
        from repro.apps.em3d import bind_em3d_model, generate_problem
        from repro.cluster import uniform_network
        from repro.core.mapper import DefaultMapper

        cluster = uniform_network([46.0] * 10 + [106.0] * 3 + [176.0] * 3)
        netmodel = NetworkModel(cluster, list(range(16)))
        model = bind_em3d_model(
            generate_problem(p=9, total_nodes=27_000, seed=3), k=100)
        fixed = {model.parent_index(): 0}
        stats = SelectionStats()
        optimum = ExhaustiveMapper().select(
            model, netmodel, list(range(16)), fixed, stats=stats)
        default = DefaultMapper().select(
            model, netmodel, list(range(16)), fixed)
        assert optimum.time <= default.time
        assert stats.evaluations + stats.symmetry_skips == math.perm(15, 8)

    def test_evaluation_bound_raises(self):
        cluster = paper_network()
        netmodel = NetworkModel(cluster, list(range(9)))
        model = make_model(nproc=5, seed=4)
        mapper = ExhaustiveMapper(reduce_symmetry=False, max_evaluations=10)
        with pytest.raises(MappingError, match="exceeded 10 evaluations"):
            mapper.select(model, netmodel, list(range(9)), {0: 0})


class TestBatchConsistency:
    def test_batch_matches_singles_across_paths(self):
        from repro.core.seleng import BATCH_VECTOR_THRESHOLD

        model = make_model(nproc=4, seed=5)
        netmodel = NetworkModel(paper_network(), list(range(9)))
        rng = np.random.default_rng(9)
        mappings = [
            tuple(int(m) for m in rng.integers(0, 9, size=4))
            for _ in range(BATCH_VECTOR_THRESHOLD + 3)
        ]
        singles = np.asarray(
            [estimate_time(model, netmodel, m) for m in mappings]
        )
        small = evaluate_mappings(model, netmodel, mappings[:4])
        large = evaluate_mappings(model, netmodel, mappings)
        assert np.array_equal(small, singles[:4])
        assert np.array_equal(large, singles)
