"""Simulated-annealing mapper."""

import numpy as np
import pytest

from repro.cluster import paper_network, random_network
from repro.core import ExhaustiveMapper, GreedyMapper, NetworkModel
from repro.core.samapper import AnnealingMapper
from repro.perfmodel import MatrixModel


def comm_heavy_model(rng, n):
    node = rng.uniform(5.0, 40.0, size=n)
    links = rng.uniform(0.0, 8e6, size=(n, n))
    np.fill_diagonal(links, 0.0)
    return MatrixModel(node, links)


class TestQuality:
    def test_never_worse_than_seed(self):
        rng = np.random.default_rng(5)
        nm = NetworkModel(paper_network(), list(range(9)))
        model = comm_heavy_model(rng, 6)
        seed = GreedyMapper().select(model, nm, list(range(9)))
        sa = AnnealingMapper(moves=200).select(model, nm, list(range(9)))
        assert sa.time <= seed.time + 1e-12

    def test_close_to_oracle_on_heterogeneous_links(self):
        rng = np.random.default_rng(2)
        cluster = random_network(6, seed=4)
        nm = NetworkModel(cluster, list(range(6)))
        model = comm_heavy_model(rng, 4)
        oracle = ExhaustiveMapper(reduce_symmetry=False).select(
            model, nm, list(range(6))
        )
        sa = AnnealingMapper(moves=600, rng_seed=1).select(
            model, nm, list(range(6))
        )
        assert sa.time <= oracle.time * 1.10

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        nm = NetworkModel(paper_network(), list(range(9)))
        model = comm_heavy_model(rng, 5)
        a = AnnealingMapper(moves=150, rng_seed=7).select(model, nm, list(range(9)))
        b = AnnealingMapper(moves=150, rng_seed=7).select(model, nm, list(range(9)))
        assert a.processes == b.processes
        assert a.time == b.time

    def test_respects_fixed(self):
        rng = np.random.default_rng(3)
        nm = NetworkModel(paper_network(), list(range(9)))
        model = comm_heavy_model(rng, 4)
        sa = AnnealingMapper(moves=150).select(
            model, nm, list(range(9)), fixed={0: 0}
        )
        assert sa.processes[0] == 0

    def test_all_pinned_returns_seed(self):
        rng = np.random.default_rng(4)
        nm = NetworkModel(paper_network(), list(range(9)))
        model = comm_heavy_model(rng, 2)
        sa = AnnealingMapper(moves=50).select(
            model, nm, list(range(9)), fixed={0: 3, 1: 5}
        )
        assert sa.processes == (3, 5)


def test_registered_on_package_import():
    from repro.core import available_mappers

    assert "anneal" in available_mappers()
