"""EM3D problem generation and serial kernels."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.em3d.problem import EM3DProblem, SubBody, generate_problem
from repro.apps.em3d.serial import em3d_step_local, serial_em3d, update_field
from repro.util.errors import ReproError


class TestGenerateProblem:
    def test_total_nodes_exact(self):
        p = generate_problem(5, 10_000, seed=0)
        assert p.total_nodes == 10_000
        assert p.p == 5

    def test_deterministic(self):
        a = generate_problem(4, 5_000, seed=3)
        b = generate_problem(4, 5_000, seed=3)
        assert (a.d == b.d).all()
        assert (a.dep == b.dep).all()
        assert (a.bodies[0].e_values == b.bodies[0].e_values).all()

    def test_different_seeds_differ(self):
        a = generate_problem(4, 5_000, seed=1)
        b = generate_problem(4, 5_000, seed=2)
        assert not (a.d == b.d).all() or not (a.dep == b.dep).all()

    def test_irregular_sizes(self):
        p = generate_problem(6, 30_000, seed=0, imbalance=4.0)
        assert p.d.max() > p.d.min()  # genuinely uneven

    def test_ring_connectivity(self):
        p = generate_problem(6, 10_000, seed=0, extra_edges=0)
        for i in range(6):
            j = (i + 1) % 6
            assert p.dep[i, j] > 0
            assert p.dep[j, i] > 0

    def test_validates(self):
        generate_problem(8, 20_000, seed=5).validate()

    def test_single_subbody(self):
        p = generate_problem(1, 100, seed=0)
        assert p.dep.sum() == 0

    def test_too_small_rejected(self):
        with pytest.raises(ReproError):
            generate_problem(10, 20)

    def test_validation_catches_bad_d(self):
        p = generate_problem(3, 1_000, seed=0)
        p.d = np.array([1, 2])
        with pytest.raises(ReproError):
            p.validate()

    def test_validation_catches_diagonal_dep(self):
        p = generate_problem(3, 1_000, seed=0)
        p.dep_e[0, 0] = 5
        with pytest.raises(ReproError):
            p.validate()


class TestUpdateField:
    def test_shape_preserved(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(50)
        weights = rng.uniform(0.1, 0.3, (50, 3))
        out = update_field(values, weights, rng.standard_normal(40))
        assert out.shape == (50,)

    def test_bounded_by_tanh(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(20) * 100
        weights = rng.uniform(0.1, 0.3, (20, 3))
        out = update_field(values, weights, rng.standard_normal(20) * 100)
        # 0.5*old + 0.5*tanh(...) keeps magnitude shrinking toward [-1, 1]
        assert np.abs(out).max() <= np.abs(values).max()

    def test_boundary_term_changes_result(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(10)
        weights = rng.uniform(0.1, 0.3, (10, 3))
        nb = rng.standard_normal(10)
        a = update_field(values, weights, nb, boundary_term=0.0)
        b = update_field(values, weights, nb, boundary_term=1.0)
        assert not np.allclose(a, b)

    def test_empty_field(self):
        out = update_field(np.array([]), np.zeros((0, 3)), np.array([1.0]))
        assert out.shape == (0,)

    def test_empty_neighbours(self):
        out = update_field(np.ones(3), np.zeros((3, 3)), np.array([]))
        assert out.shape == (3,)


def reference_update_field(values, weights, neighbours, boundary_term=0.0):
    """``update_field`` as first written: arange + modulo gathers."""
    n = len(values)
    if n == 0:
        return values
    m = len(neighbours)
    if m == 0:
        return values * 0.98 + boundary_term
    idx = np.arange(n)
    a = neighbours[idx % m]
    b = neighbours[(idx + 1) % m]
    c = neighbours[(idx + 2) % m]
    mixed = weights[:, 0] * a + weights[:, 1] * b + weights[:, 2] * c
    return 0.5 * values + 0.5 * np.tanh(mixed + boundary_term)


class TestUpdateFieldMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(0, 80), m=st.integers(0, 80),
           seed=st.integers(0, 2**32 - 1),
           boundary=st.floats(-3.0, 3.0, allow_nan=False))
    @example(n=5, m=40, seed=0, boundary=0.0)    # n < m
    @example(n=40, m=5, seed=1, boundary=0.5)    # n > m
    @example(n=7, m=1, seed=2, boundary=-1.0)    # m = 1
    @example(n=0, m=9, seed=3, boundary=0.0)     # n = 0
    @example(n=6, m=0, seed=4, boundary=2.0)     # m = 0
    def test_bitwise_equal(self, n, m, seed, boundary):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(n)
        weights = rng.uniform(0.1, 0.3, (n, 3))
        nb = rng.standard_normal(m)
        got = update_field(values, weights, nb, boundary)
        want = reference_update_field(values, weights, nb, boundary)
        assert got.shape == want.shape
        assert (got.view(np.uint64) == want.view(np.uint64)).all()


class TestSerial:
    def make_body(self, n=40):
        rng = np.random.default_rng(1)
        n_e = n // 2
        return SubBody(
            index=0,
            e_values=rng.standard_normal(n_e),
            h_values=rng.standard_normal(n - n_e),
            e_weights=rng.uniform(0.1, 0.3, (n_e, 3)),
            h_weights=rng.uniform(0.1, 0.3, (n - n_e, 3)),
        )

    def test_step_mutates_in_place(self):
        body = self.make_body()
        before = body.e_values.copy()
        em3d_step_local(body)
        assert not np.allclose(body.e_values, before)

    def test_values_stay_finite_over_many_steps(self):
        body = self.make_body()
        serial_em3d(body, 100)
        assert np.isfinite(body.e_values).all()
        assert np.isfinite(body.h_values).all()
        assert np.abs(body.e_values).max() < 10.0
