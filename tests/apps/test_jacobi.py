"""Heterogeneous Jacobi iteration (extension application)."""

import numpy as np
import pytest

from repro.apps.jacobi import (
    bind_jacobi_model,
    jacobi_model,
    jacobi_reference,
    partition_rows,
    run_jacobi_hmpi,
    run_jacobi_mpi,
)
from repro.cluster import paper_network, uniform_network
from repro.perfmodel import lint_model
from repro.util.errors import ReproError

from ..experiments import assert_table


class TestPartitionRows:
    def test_covers_interior(self):
        rows = partition_rows(100, [1.0, 2.0, 3.0])
        assert sum(rows) == 98
        assert all(r >= 1 for r in rows)

    def test_proportionality(self):
        rows = partition_rows(62, [1.0, 2.0, 3.0])
        assert rows == [10, 20, 30]

    def test_too_small(self):
        with pytest.raises(ReproError):
            partition_rows(2, [1.0])


class TestModel:
    def test_volumes(self):
        bm = bind_jacobi_model(3, 100, 100, [40, 30, 28])
        assert bm.node_volumes() == pytest.approx([40.0, 30.0, 28.0])
        links = bm.link_volumes()
        # chain: only neighbours communicate, N doubles each way
        assert links[0, 1] == links[1, 0] == 800.0
        assert links[1, 2] == links[2, 1] == 800.0
        assert links[0, 2] == 0.0

    def test_model_lints(self):
        bm = bind_jacobi_model(4, 100, 64, [20, 16, 14, 12])
        report = lint_model(bm)
        assert report.ok, report.issues

    def test_parent_is_first_panel(self):
        assert bind_jacobi_model(2, 10, 10, [4, 4]).parent_index() == 0


class TestReference:
    def test_boundaries_fixed(self):
        ref = jacobi_reference(20, 5, seed=1)
        # corners belong to the side walls (columns are assigned last)
        assert (ref[0, 1:-1] == 1.0).all()
        assert (ref[-1, 1:-1] == 1.0).all()
        assert (ref[:, 0] == -1.0).all()
        assert (ref[:, -1] == -1.0).all()

    def test_smoothing_reduces_variance(self):
        start = jacobi_reference(30, 0, seed=2)
        end = jacobi_reference(30, 50, seed=2)
        assert end[1:-1, 1:-1].var() != start[1:-1, 1:-1].var()
        assert np.isfinite(end).all()


class TestParallelCorrectness:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_mpi_matches_reference(self, p):
        n, niter, seed = 40, 6, 4
        ref = jacobi_reference(n, niter, seed)
        res = run_jacobi_mpi(uniform_network([50.0] * 4), n=n, p=p,
                             niter=niter, seed=seed)
        assert np.array_equal(res.grid, ref)

    def test_hmpi_matches_reference(self):
        n, niter, seed = 60, 5, 7
        ref = jacobi_reference(n, niter, seed)
        res = run_jacobi_hmpi(paper_network(), n=n, p=5, niter=niter, seed=seed)
        assert np.array_equal(res.grid, ref)

    def test_uneven_panels_same_numerics(self):
        """HMPI's proportional decomposition must not change the result."""
        n, niter, seed = 50, 4, 9
        mpi = run_jacobi_mpi(paper_network(), n=n, p=4, niter=niter, seed=seed)
        hmpi = run_jacobi_hmpi(paper_network(), n=n, p=4, niter=niter, seed=seed)
        assert np.array_equal(mpi.grid, hmpi.grid)
        assert mpi.rows != hmpi.rows  # genuinely different decompositions


class TestPerformance:
    def test_hmpi_faster_on_paper_network(self):
        mpi = run_jacobi_mpi(paper_network(), n=120, p=6, niter=8, seed=3)
        hmpi = run_jacobi_hmpi(paper_network(), n=120, p=6, niter=8, seed=3)
        assert hmpi.algorithm_time < mpi.algorithm_time

    def test_prediction_close(self):
        hmpi = run_jacobi_hmpi(paper_network(), n=120, p=6, niter=8, seed=3)
        assert hmpi.predicted_time == pytest.approx(
            hmpi.algorithm_time, rel=0.1
        )

    def test_experiments_table(self):
        """EXPERIMENTS.md's Jacobi table: HMPI wins at every grid size,
        with the serial reference's numerics and a tight prediction."""
        rows = []
        for n in (60, 120, 180):
            ref = jacobi_reference(n, 8, 3)
            mpi = run_jacobi_mpi(paper_network(), n=n, p=6, niter=8, seed=3)
            hmpi = run_jacobi_hmpi(paper_network(), n=n, p=6, niter=8, seed=3)
            assert np.array_equal(mpi.grid, ref)
            assert np.array_equal(hmpi.grid, ref)
            assert hmpi.algorithm_time < mpi.algorithm_time
            assert hmpi.predicted_time == pytest.approx(
                hmpi.algorithm_time, rel=0.1)
            rows.append([n, mpi.algorithm_time, hmpi.algorithm_time,
                         mpi.algorithm_time / hmpi.algorithm_time])
        assert_table("heterogeneous Jacobi", rows)

    def test_fast_machines_get_more_rows(self):
        hmpi = run_jacobi_hmpi(paper_network(), n=150, p=6, niter=4, seed=3)
        # panel 1 is placed on the fastest non-host machine (176): it must
        # hold more rows than the host's panel 0 (speed 46).
        assert hmpi.rows[1] > hmpi.rows[0]

    def test_too_many_panels(self):
        with pytest.raises(ReproError):
            run_jacobi_mpi(uniform_network([1.0, 2.0]), n=30, p=3, niter=1)
