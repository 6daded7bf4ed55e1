"""MPI-baseline and HMPI programs for parallel matrix multiplication.

The baseline (paper: "the standard MPI application using homogeneous 2D
block-cyclic data distribution") runs the identical algorithm with the
ScaLAPACK distribution on the first m² world processes in rank order.

The HMPI version follows Figure 8: Recon with the serial r×r
multiplication benchmark, a Timeof sweep to choose the optimal generalized
block size, Group_create with the Figure 7 model, then the algorithm on
the created group with the heterogeneous distribution.
Both run through :mod:`repro.apps.program`; the plan step is the host's
block-size sweep and the broadcast of its choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...cluster.network import Cluster
from ...core.mapper import Mapper
from ...core.recon import kernel_benchmark, matmul_kernel
from ...core.runtime import HMPI
from ...util.errors import ReproError
from ..program import run_baseline, run_selected
from .algorithm import matmul_algorithm
from .distribution import (
    BlockDistribution,
    heterogeneous_distribution,
    homogeneous_distribution,
)
from .model import bind_matmul_model

__all__ = [
    "MatmulRunResult",
    "speed_grid",
    "candidate_block_sizes",
    "run_matmul_mpi",
    "run_matmul_hmpi",
]


@dataclass
class MatmulRunResult:
    """Outcome of one parallel matrix-multiplication run."""

    algorithm_time: float
    makespan: float
    checksum: float                    # sum of all C entries
    group_world_ranks: tuple[int, ...]
    block_size_l: int                  # generalized block size used
    predicted_time: float | None = None
    distribution: BlockDistribution | None = None


def speed_grid(speeds: list[float], m: int, host_machine: int = 0) -> np.ndarray:
    """Arrange machine speeds into the m×m grid the distribution assumes.

    The host's machine takes grid position (0, 0) — the model pins
    ``parent[0,0]`` to the host — and the remaining machines fill the grid
    in descending speed order, which gives the mapper a consistent target:
    abstract processor volumes are proportional to exactly these speeds.
    """
    if len(speeds) < m * m:
        raise ReproError(f"need {m * m} machines for an {m}x{m} grid")
    rest = sorted(
        (s for i, s in enumerate(speeds) if i != host_machine), reverse=True
    )
    ordered = [speeds[host_machine]] + rest[: m * m - 1]
    return np.array(ordered, dtype=float).reshape(m, m)


def candidate_block_sizes(n: int, m: int) -> list[int]:
    """Generalized block sizes to sweep: divisors of n in [m, n]."""
    return [l for l in range(m, n + 1) if n % l == 0]


def _algorithm(r: int, seed: int):
    def algorithm(compute, comm, dist):
        c_blocks = matmul_algorithm(compute, comm, dist, r, seed)
        return float(sum(b.sum() for b in c_blocks.values()))

    return algorithm


def _result(checksum, dist, elapsed, makespan, ranks, _machines,
            predicted=None) -> MatmulRunResult:
    return MatmulRunResult(elapsed, makespan, checksum, ranks, dist.l,
                           predicted, dist)


def run_matmul_mpi(
    cluster: Cluster,
    n: int,
    r: int,
    m: int = 3,
    seed: int = 0,
    timeout: float | None = 300.0,
    *,
    engine: str | None = None,
) -> MatmulRunResult:
    """Homogeneous 2D block-cyclic baseline on the first m² processes."""
    if m * m > cluster.size:
        raise ReproError(f"grid {m}x{m} needs {m * m} machines, "
                         f"cluster has {cluster.size}")
    return run_baseline(
        cluster, m * m, _algorithm(r, seed), homogeneous_distribution(n, m),
        _result, timeout=timeout, engine=engine)


def run_matmul_hmpi(
    cluster: Cluster,
    n: int,
    r: int,
    m: int = 3,
    l: int | None = None,
    seed: int = 0,
    mapper: Mapper | None = None,
    recon: bool = True,
    timeout: float | None = 300.0,
    obs=None,
    *,
    engine: str | None = None,
) -> MatmulRunResult:
    """The HMPI version of Figure 8.

    With ``l=None`` the host sweeps candidate generalized block sizes with
    ``HMPI_Timeof`` and uses the predicted-fastest one, exactly like the
    paper's ``optimal_generalised_block_size`` loop.  An
    :class:`repro.obs.Observability` passed as ``obs`` collects metrics,
    runtime spans, and the predicted-vs-measured accuracy pair for the
    timed region.
    """
    if m * m > cluster.size:
        raise ReproError(f"grid {m}x{m} needs {m * m} machines, "
                         f"cluster has {cluster.size}")

    def plan(hmpi: HMPI):
        # Host decides distribution + block size; everyone needs the same
        # model to participate in group_create, so broadcast the choice.
        if hmpi.is_host():
            speeds = hmpi.state.netmodel.speeds().tolist()
            grid = speed_grid(speeds, m, host_machine=hmpi.env.machine_index)
            if l is None:
                best_l, best_t = None, None
                for bsize in candidate_block_sizes(n, m):
                    dist_c = heterogeneous_distribution(n, bsize, grid)
                    t = hmpi.timeof(bind_matmul_model(dist_c, r), mapper=mapper)
                    if best_t is None or t < best_t:
                        best_l, best_t = bsize, t
                chosen_l = best_l
            else:
                chosen_l = l
            dist = heterogeneous_distribution(n, chosen_l, grid)
            # One bound model for Timeof, Group_create and record_measured:
            # the selection cache keys on model identity, so Group_create
            # reuses the selection Timeof just solved.
            model = bind_matmul_model(dist, r)
            predicted = hmpi.timeof(model, mapper=mapper)
            # chosen_l == dist.l; the payload keeps both (its size sets
            # the broadcast's virtual time).
            choice = (chosen_l, dist, predicted)
        else:
            choice = None
        _, dist, predicted = hmpi.comm_world.bcast(choice, root=0)
        if not hmpi.is_host():
            model = bind_matmul_model(dist, r)
        return model, predicted, dist

    return run_selected(
        cluster, plan, _algorithm(r, seed), _result,
        recon=recon, benchmark=kernel_benchmark(matmul_kernel(r)),
        mapper=mapper, timeout=timeout, obs=obs, engine=engine)
