"""MPI-baseline and HMPI drivers for parallel matrix multiplication.

The baseline (paper: "the standard MPI application using homogeneous 2D
block-cyclic data distribution") runs the identical algorithm with the
ScaLAPACK distribution on the first m² world processes in rank order.

The HMPI version follows Figure 8: Recon with the serial r×r
multiplication benchmark, a Timeof sweep to choose the optimal generalized
block size, Group_create with the Figure 7 model, then the algorithm on
the created group with the heterogeneous distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...cluster.network import Cluster
from ...core.mapper import Mapper
from ...core.recon import kernel_benchmark, matmul_kernel
from ...core.runtime import HMPI, run_hmpi
from ...mpi.launcher import MPIEnv, run_mpi
from ...mpi.ops import SUM
from ...util.errors import ReproError
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


def _timed_region(comm, compute, dist, r, seed):
    comm.barrier()
    t0 = comm.wtime()
    c_blocks = matmul_algorithm(compute, comm, dist, r, seed)
    comm.barrier()
    elapsed = comm.wtime() - t0
    local_sum = float(sum(b.sum() for b in c_blocks.values()))
    total = comm.allreduce(local_sum, SUM)
    return total, elapsed


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
    dist = homogeneous_distribution(n, m)

    def app(env: MPIEnv):
        me = env.rank
        executing = 1 if me < m * m else 0
        grid_comm = env.comm_world.split(executing, key=me)
        if not executing:
            return None
        total, elapsed = _timed_region(grid_comm, env.compute, dist, r, seed)
        ranks = grid_comm.group.world_ranks
        grid_comm.free()
        return (total, elapsed, ranks)

    result = run_mpi(app, cluster, timeout=timeout, engine=engine)
    total, elapsed, ranks = result.results[0]
    return MatmulRunResult(
        algorithm_time=elapsed,
        makespan=result.makespan,
        checksum=total,
        group_world_ranks=tuple(ranks),
        block_size_l=m,
        distribution=dist,
    )


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

    def app(hmpi: HMPI):
        if recon:
            hmpi.recon(kernel_benchmark(matmul_kernel(r)))

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
            choice = (chosen_l, dist, predicted)
        else:
            choice = None
        chosen_l, dist, predicted = hmpi.comm_world.bcast(choice, root=0)
        if not hmpi.is_host():
            model = bind_matmul_model(dist, r)

        gid = hmpi.group_create(model, mapper=mapper)
        out = None
        if gid.is_member:
            comm = gid.comm
            conc = gid.my_concurrency

            def member_compute(volume, _conc=conc):
                return hmpi.compute(volume, _conc)

            total, elapsed = _timed_region(comm, member_compute, dist, r, seed)
            if hmpi.is_host():
                hmpi.record_measured(model, elapsed)
            out = (total, elapsed, gid.world_ranks, chosen_l, predicted, dist)
            hmpi.group_free(gid)
        return out

    result = run_hmpi(app, cluster, mapper=mapper, timeout=timeout, obs=obs,
                      engine=engine)
    total, elapsed, ranks, chosen_l, predicted, dist = result.results[0]
    return MatmulRunResult(
        algorithm_time=elapsed,
        makespan=result.makespan,
        checksum=total,
        group_world_ranks=tuple(ranks),
        block_size_l=chosen_l,
        predicted_time=predicted,
        distribution=dist,
    )
