"""End-to-end application drivers (Figures 3/5 and 8 programs)."""

import numpy as np
import pytest

from repro.apps.matmul import (
    candidate_block_sizes,
    run_matmul_hmpi,
    run_matmul_mpi,
    speed_grid,
)
from repro.cluster import paper_network
from repro.core import GreedyMapper
from repro.util.errors import ReproError


class TestSpeedGrid:
    def test_host_at_origin(self):
        speeds = [46.0] * 6 + [176.0, 106.0, 9.0]
        grid = speed_grid(speeds, 3, host_machine=0)
        assert grid[0, 0] == 46.0
        assert grid[0, 1] == 176.0  # fastest non-host next
        assert grid.flatten()[-1] == 9.0

    def test_needs_enough_machines(self):
        with pytest.raises(ReproError):
            speed_grid([1.0, 2.0], 2)


class TestCandidateBlockSizes:
    def test_divisors_only(self):
        assert candidate_block_sizes(12, 3) == [3, 4, 6, 12]

    def test_lower_bound_m(self):
        assert candidate_block_sizes(12, 6) == [6, 12]


@pytest.mark.slow
class TestMatmulDrivers:
    @pytest.fixture(scope="class")
    def runs(self):
        cluster = paper_network()
        mpi = run_matmul_mpi(cluster, n=12, r=6, m=3, seed=4)
        hmpi = run_matmul_hmpi(
            paper_network(), n=12, r=6, m=3, seed=4, mapper=GreedyMapper()
        )
        return mpi, hmpi

    def test_identical_checksums(self, runs):
        mpi, hmpi = runs
        assert mpi.checksum == pytest.approx(hmpi.checksum, rel=1e-12)

    def test_hmpi_faster_on_paper_network(self, runs):
        mpi, hmpi = runs
        # Paper Figure 11(b): ~3x.  Require a clear win.
        assert mpi.algorithm_time / hmpi.algorithm_time > 2.0

    def test_prediction_close(self, runs):
        _, hmpi = runs
        assert hmpi.predicted_time == pytest.approx(hmpi.algorithm_time, rel=0.2)

    def test_block_size_chosen_from_candidates(self, runs):
        _, hmpi = runs
        assert hmpi.block_size_l in candidate_block_sizes(12, 3)

    def test_explicit_block_size_honoured(self):
        hmpi = run_matmul_hmpi(
            paper_network(), n=12, r=4, m=3, l=6, seed=1, mapper=GreedyMapper()
        )
        assert hmpi.block_size_l == 6
        assert hmpi.distribution.l == 6

    def test_grid_too_large_rejected(self):
        from repro.cluster import homogeneous_network

        with pytest.raises(ReproError):
            run_matmul_mpi(homogeneous_network(4), n=9, r=4, m=3)

    def test_selection_solved_once_per_run(self, monkeypatch):
        """Fig. 8's Timeof -> Group_create idiom is one selection: the host
        binds the model once, so Group_create hits the selection cache."""
        from repro.core import seleng
        from repro.obs import Observability

        builds = []

        class CountingTrace(seleng.CompiledTrace):
            __slots__ = ()

            def __init__(self, model):
                builds.append(model)
                super().__init__(model)

        monkeypatch.setattr(seleng, "CompiledTrace", CountingTrace)
        obs = Observability()
        run_matmul_hmpi(paper_network(), n=12, r=4, m=3, l=6, seed=1,
                        mapper=GreedyMapper(), obs=obs)
        assert len(builds) == 1
        obs.snapshot()
        hits = obs.metrics.series("hmpi.selection.cache_hits")
        assert sum(gauge.value for gauge in hits) >= 1
