"""Parallel matrix multiplication: numerics against NumPy ground truth."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.matmul.algorithm import (
    assemble_matrix,
    matmul_algorithm,
    matrix_block,
    matrix_stack,
    reference_product,
)
from repro.apps.matmul.distribution import (
    heterogeneous_distribution,
    homogeneous_distribution,
)
from repro.cluster import homogeneous_network
from repro.mpi import run_mpi
from repro.util.errors import ReproError


def gathered_product(dist, r, seed, cluster=None):
    cluster = cluster or homogeneous_network(dist.m * dist.m)

    def app(env):
        return matmul_algorithm(env.compute, env.comm_world, dist, r, seed)

    res = run_mpi(app, cluster, timeout=60)
    n = dist.n
    C = np.zeros((n * r, n * r))
    for rank_blocks in res.results:
        for (bi, bj), blk in rank_blocks.items():
            C[bi * r:(bi + 1) * r, bj * r:(bj + 1) * r] = blk
    return C


class TestMatrixBlocks:
    def test_deterministic(self):
        a = matrix_block(1, 0, 2, 3, 4)
        b = matrix_block(1, 0, 2, 3, 4)
        assert (a == b).all()

    def test_distinct_blocks_differ(self):
        a = matrix_block(1, 0, 0, 0, 4)
        b = matrix_block(1, 0, 0, 1, 4)
        c = matrix_block(1, 1, 0, 0, 4)
        assert not (a == b).all()
        assert not (a == c).all()

    def test_a_differs_from_b(self):
        a = matrix_stack(4, 0, range(3), range(3), 5)
        b = matrix_stack(4, 1, range(3), range(3), 5)
        assert not np.isin(a, b).any()

    def test_assemble_matches_blocks(self):
        m = assemble_matrix(2, 0, 3, 2)
        for i in range(3):
            for j in range(3):
                assert (m[2 * i:2 * i + 2, 2 * j:2 * j + 2]
                        == matrix_block(2, 0, i, j, 2)).all()


blocks = st.lists(st.integers(0, 40), min_size=1, max_size=5)


class TestMatrixStack:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.one_of(st.sampled_from([0, -1, 2**63 - 1]),
                          st.integers(-2**70, 2**70)),
           which=st.sampled_from([0, 1]), rows=blocks, cols=blocks,
           r=st.integers(1, 4))
    def test_stack_is_blockwise(self, seed, which, rows, cols, r):
        """Any layout draws the same blocks, bit for bit."""
        stack = matrix_stack(seed, which, rows, cols, r)
        assert stack.shape == (len(rows), len(cols), r, r)
        for x, i in enumerate(rows):
            for y, j in enumerate(cols):
                assert (stack[x, y].view(np.uint64)
                        == matrix_block(seed, which, i, j, r).view(np.uint64)
                        ).all()

    def test_standard_normal_moments(self):
        z = matrix_stack(9, 0, range(25), range(50), 9).ravel()
        assert z.size > 10**5
        assert np.isfinite(z).all()
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.03

    @pytest.mark.parametrize("seed", [0, -1, 2**63 - 1, 2**63, -2**80])
    def test_no_warnings(self, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix_stack(seed, 1, [0, 5], range(4), 3)

    @pytest.mark.parametrize("rows,r", [([2**31], 2), ([2**32 - 1], 1),
                                        ([-1], 3)])
    def test_index_outside_counter_rejected(self, rows, r):
        with pytest.raises(ReproError):
            matrix_stack(0, 0, rows, [0], r)

    def test_largest_index_accepted(self):
        assert matrix_stack(0, 0, [2**32 - 2], [0], 1).shape == (1, 1, 1, 1)


class TestHomogeneousAlgorithm:
    @pytest.mark.parametrize("n,l,m,r", [(4, 2, 2, 3), (6, 2, 2, 2), (6, 3, 3, 2)])
    def test_matches_numpy(self, n, l, m, r):
        dist = homogeneous_distribution(n, m)
        C = gathered_product(dist, r, seed=7)
        assert np.allclose(C, reference_product(7, n, r))


class TestHeterogeneousAlgorithm:
    @pytest.mark.parametrize("l", [4, 8])
    def test_matches_numpy_2x2(self, l):
        speeds = np.array([[4.0, 1.0], [2.0, 3.0]])
        dist = heterogeneous_distribution(8, l, speeds)
        C = gathered_product(dist, r=3, seed=5)
        assert np.allclose(C, reference_product(5, 8, 3))

    def test_matches_numpy_3x3(self):
        rng = np.random.default_rng(0)
        speeds = rng.uniform(1, 10, (3, 3))
        dist = heterogeneous_distribution(6, 6, speeds)
        C = gathered_product(dist, r=2, seed=11, cluster=homogeneous_network(9))
        assert np.allclose(C, reference_product(11, 6, 2))

    def test_extreme_skew(self):
        speeds = np.array([[100.0, 1.0], [1.0, 1.0]])
        dist = heterogeneous_distribution(6, 6, speeds)
        C = gathered_product(dist, r=2, seed=3)
        assert np.allclose(C, reference_product(3, 6, 2))


class TestVolumeAccounting:
    def test_compute_units_equal_owned_blocks_times_steps(self):
        """Each rank must charge exactly area * n benchmark units."""
        dist = homogeneous_distribution(4, 2)
        charged = {}

        def app(env):
            total = [0.0]

            def counting_compute(v):
                total[0] += v
                return env.compute(v)

            matmul_algorithm(counting_compute, env.comm_world, dist, 2, 0)
            return total[0]

        res = run_mpi(app, homogeneous_network(4), timeout=60)
        for g, units in enumerate(res.results):
            assert units == pytest.approx(dist.area(g) * dist.n)

    def test_wrong_comm_size_rejected(self):
        from repro.util.errors import ReproError

        dist = homogeneous_distribution(4, 2)

        def app(env):
            with pytest.raises(ReproError):
                matmul_algorithm(env.compute, env.comm_world, dist, 2, 0)
            return True

        run_mpi(app, homogeneous_network(3), timeout=30)
