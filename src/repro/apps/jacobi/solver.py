"""The Jacobi solver: serial reference, MPI baseline, HMPI version.

A 2-D heat problem on an ``N x N`` grid with fixed boundary values;
``niter`` Jacobi sweeps of the interior.  The parallel versions decompose
the interior rows into ``p`` horizontal panels — uniformly for the MPI
baseline, speed-proportionally for HMPI — and exchange one halo row with
each neighbour per iteration.  The updates are genuinely computed (NumPy),
and the assembled result grid must be identical for every decomposition,
which the tests assert against the serial reference.
Both run through :mod:`repro.apps.program`.  The halo sweep
(:func:`jacobi_panel_sweep`) and :func:`assemble_grid` also serve :mod:`.ft`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...cluster.network import Cluster
from ...core.mapper import Mapper
from ...core.runtime import HMPI
from ...mpi.communicator import Comm
from ...util.errors import ReproError
from ..matmul.distribution import proportional_partition
from ..program import run_baseline, run_selected
from .model import bind_jacobi_model

__all__ = [
    "partition_rows",
    "jacobi_reference",
    "jacobi_panel_sweep",
    "run_jacobi_mpi",
    "run_jacobi_hmpi",
    "JacobiRunResult",
]


def initial_grid(n: int, seed: int = 0) -> np.ndarray:
    """Deterministic N x N starting grid with hot boundaries."""
    rng = np.random.default_rng(seed)
    grid = rng.uniform(0.0, 0.1, size=(n, n))
    grid[0, :] = 1.0
    grid[-1, :] = 1.0
    grid[:, 0] = -1.0
    grid[:, -1] = -1.0
    return grid


def jacobi_reference(n: int, niter: int, seed: int = 0) -> np.ndarray:
    """Serial ground truth."""
    grid = initial_grid(n, seed)
    for _ in range(niter):
        interior = 0.25 * (grid[:-2, 1:-1] + grid[2:, 1:-1]
                           + grid[1:-1, :-2] + grid[1:-1, 2:])
        new = grid.copy()
        new[1:-1, 1:-1] = interior
        grid = new
    return grid


def partition_rows(n: int, weights) -> list[int]:
    """Split the ``n - 2`` interior rows proportionally to ``weights``."""
    if n < 3:
        raise ReproError("grid too small for an interior")
    return [int(x) for x in proportional_partition(n - 2, np.asarray(weights, dtype=float))]


def panel_starts(rows: list[int]) -> list[int]:
    """First interior grid row of each panel, in group-rank order."""
    return [1 + sum(rows[:i]) for i in range(len(rows))]


def cut_panel(grid: np.ndarray, rows: list[int], me: int):
    """Group rank ``me``'s panel of ``grid`` with one halo row above and
    below; returns ``(first_row, panel)``, the panel a private copy."""
    start = panel_starts(rows)[me]
    return start, grid[start - 1:start + rows[me] + 1].copy()


def assemble_grid(n: int, seed: int, parts) -> np.ndarray:
    """The starting grid with each ``(first_row, interior_block)`` part
    written over it — the one way a result or a checkpoint becomes a grid.
    """
    grid = initial_grid(n, seed)
    for start, block in parts:
        grid[start:start + len(block), :] = block
    return grid


def jacobi_panel_sweep(
    compute,
    comm: Comm,
    n: int,
    rows: list[int],
    panel: np.ndarray,
    iterations: range,
    k: int,
) -> None:
    """Run the sweeps numbered ``iterations`` on one member's ``panel``
    (from :func:`cut_panel`), in place; the sweep number tags its halo
    messages."""
    p = comm.size
    if len(rows) != p:
        raise ReproError(f"rows has {len(rows)} entries for {p} ranks")
    if sum(rows) != n - 2:
        raise ReproError("rows must cover exactly the interior")
    me = comm.rank
    for it in iterations:
        # halo exchange with neighbours (boundary rows are fixed walls)
        if me > 0:
            comm.send(panel[1].copy(), me - 1, tag=it)
        if me < p - 1:
            comm.send(panel[-2].copy(), me + 1, tag=it)
        if me > 0:
            panel[0] = comm.recv(me - 1, tag=it)
        if me < p - 1:
            panel[-1] = comm.recv(me + 1, tag=it)
        interior = 0.25 * (panel[:-2, 1:-1] + panel[2:, 1:-1]
                           + panel[1:-1, :-2] + panel[1:-1, 2:])
        panel[1:-1, 1:-1] = interior
        compute(rows[me] * n / k)


@dataclass
class JacobiRunResult:
    algorithm_time: float
    makespan: float
    grid: np.ndarray                    # assembled final grid
    rows: list[int]
    group_world_ranks: tuple[int, ...]
    predicted_time: float | None = None


def _program(n: int, niter: int, k: int, seed: int):
    """The panel algorithm and its gather, over a ``rows`` layout."""

    def algorithm(compute, comm, rows):
        _, panel = cut_panel(initial_grid(n, seed), rows, comm.rank)
        jacobi_panel_sweep(compute, comm, n, rows, panel, range(niter), k)
        return panel[1:-1]

    def collect(comm, panel, rows):
        panels = comm.gather(panel, root=0)
        if comm.rank != 0:
            return None
        return assemble_grid(n, seed, zip(panel_starts(rows), panels))

    return algorithm, collect


def _result(grid, rows, elapsed, makespan, ranks, _machines,
            predicted=None) -> JacobiRunResult:
    return JacobiRunResult(elapsed, makespan, grid, rows, ranks, predicted)


def run_jacobi_mpi(
    cluster: Cluster,
    n: int,
    p: int,
    niter: int,
    k: int = 100,
    seed: int = 0,
    timeout: float | None = 120.0,
    *,
    engine: str | None = None,
) -> JacobiRunResult:
    """Uniform row panels on the first ``p`` world processes."""
    if p > cluster.size:
        raise ReproError(f"need {p} machines, cluster has {cluster.size}")
    algorithm, collect = _program(n, niter, k, seed)
    return run_baseline(cluster, p, algorithm, partition_rows(n, [1.0] * p),
                        _result, collect, timeout=timeout, engine=engine)


def run_jacobi_hmpi(
    cluster: Cluster,
    n: int,
    p: int,
    niter: int,
    k: int = 100,
    seed: int = 0,
    mapper: Mapper | None = None,
    recon: bool = True,
    timeout: float | None = 120.0,
    *,
    engine: str | None = None,
) -> JacobiRunResult:
    """Speed-proportional panels on an HMPI-selected group.

    The host reads the (recon-refreshed) speed estimates, sizes the panels
    for an intended speed-sorted arrangement with itself first (the model
    pins ``parent[0]`` to the host), and broadcasts them; everyone binds
    the Jacobi model, whose selection matches panel volumes to machine
    speeds.
    """
    if p > cluster.size:
        raise ReproError(f"need {p} machines, cluster has {cluster.size}")

    def plan(hmpi: HMPI):
        if hmpi.is_host():
            speeds = hmpi.state.netmodel.speeds().tolist()
            host_speed = speeds[hmpi.env.machine_index]
            others = sorted(
                (s for i, s in enumerate(speeds) if i != hmpi.env.machine_index),
                reverse=True,
            )
            arrangement = [host_speed] + others[:p - 1]
            rows = partition_rows(n, arrangement)
        else:
            rows = None
        rows = hmpi.comm_world.bcast(rows, root=0)
        bound = bind_jacobi_model(p, k, n, rows)
        predicted = hmpi.timeof(bound, iterations=niter) if hmpi.is_host() else None
        return bound, predicted, rows

    algorithm, collect = _program(n, niter, k, seed)
    return run_selected(cluster, plan, algorithm, _result, collect,
                        recon=recon, mapper=mapper, timeout=timeout,
                        engine=engine)
