"""Parallel EM3D: the algorithm, and its MPI-baseline and HMPI programs.

The algorithm (paper Section 3) per iteration and per sub-body:

1. receive the remote H boundary values the sub-body's E nodes depend on;
2. compute new E values;
3. receive the remote E boundary values the H nodes depend on;
4. compute new H values.

Sub-body ``i`` is always handled by **group rank i** — in the MPI baseline
that group is the first ``p`` processes of the world in rank order ("it is
only a pure chance if the MPI group executes the algorithm faster than any
other group"); in the HMPI version the group comes from
``HMPI_Group_create`` with the Figure 4 model, so big sub-bodies land on
fast machines.  The numerical work is identical in both, which the test
suite exploits: both runs must produce bit-identical field checksums.
Both run through :mod:`repro.apps.program`; this module adds the recon
benchmark, the plan step and the ``procs_per_machine`` placement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...cluster.network import Cluster
from ...core.mapper import Mapper
from ...core.runtime import HMPI
from ...mpi.communicator import Comm
from ...util.errors import ReproError
from ..program import run_baseline, run_selected
from .model import bind_em3d_model
from .problem import EM3DProblem, SubBody
from .serial import make_recon_benchmark, update_field

__all__ = ["EM3DRunResult", "em3d_algorithm", "run_em3d_mpi", "run_em3d_hmpi"]


@dataclass
class EM3DRunResult:
    """Outcome of one parallel EM3D execution."""

    algorithm_time: float      # virtual seconds for the timed region
    makespan: float            # full virtual time incl. setup/recon
    checksum: float            # global field checksum (correctness witness)
    group_world_ranks: tuple[int, ...]  # which processes executed it
    predicted_time: float | None = None  # HMPI's Timeof prediction, if any
    group_machines: tuple[int, ...] = ()  # machine index per group rank


def _copy_body(body: SubBody) -> SubBody:
    return SubBody(
        index=body.index,
        e_values=body.e_values.copy(),
        h_values=body.h_values.copy(),
        e_weights=body.e_weights,  # read-only in the kernel
        h_weights=body.h_weights,
    )


def em3d_algorithm(
    compute,
    comm: Comm,
    problem: EM3DProblem,
    niter: int,
    k: int,
) -> float:
    """Execute the algorithm on one member; returns the local field checksum.

    ``compute`` is the rank's modelled-computation hook
    (``env.compute``-compatible); communication goes through ``comm``,
    whose rank order must equal the sub-body order.
    """
    me = comm.rank
    p = problem.p
    if comm.size != p:
        raise ReproError(f"communicator size {comm.size} != sub-body count {p}")
    body = _copy_body(problem.bodies[me])
    # The exchange pattern is fixed by the dependency matrices: who needs
    # how many of my values (sends), and whose values I need (receives).
    dep_e, dep_h = problem.dep_e.tolist(), problem.dep_h.tolist()
    others = [i for i in range(p) if i != me]
    e_sends = [(i, dep_e[i][me]) for i in others if dep_e[i][me] > 0]
    e_srcs = [j for j in others if dep_e[me][j] > 0]
    h_sends = [(i, dep_h[i][me]) for i in others if dep_h[i][me] > 0]
    h_srcs = [j for j in others if dep_h[me][j] > 0]

    for it in range(niter):
        # --- E phase: gather remote H boundary values -------------------
        # (a send snapshots its buffer, so slices need no copy)
        for i, count in e_sends:
            comm.send(body.h_values[:count], i, tag=2 * it)
        h_remote = [comm.recv(j, tag=2 * it) for j in e_srcs]
        e_boundary = float(np.concatenate(h_remote).mean()) if h_remote else 0.0
        body.e_values = update_field(
            body.e_values, body.e_weights, body.h_values, e_boundary
        )
        compute(body.n_e / k)

        # --- H phase: gather remote E boundary values -------------------
        for i, count in h_sends:
            comm.send(body.e_values[:count], i, tag=2 * it + 1)
        e_remote = [comm.recv(j, tag=2 * it + 1) for j in h_srcs]
        h_boundary = float(np.concatenate(e_remote).mean()) if e_remote else 0.0
        body.h_values = update_field(
            body.h_values, body.h_weights, body.e_values, h_boundary
        )
        compute(body.n_h / k)

    return float(body.e_values.sum() + body.h_values.sum())


def _algorithm(niter: int, k: int):
    return lambda compute, comm, problem: em3d_algorithm(
        compute, comm, problem, niter, k)


def _result(checksum, _problem, elapsed, makespan, ranks, machines,
            predicted=None) -> EM3DRunResult:
    return EM3DRunResult(elapsed, makespan, checksum, ranks, predicted,
                         machines)


def run_em3d_mpi(
    cluster: Cluster,
    problem: EM3DProblem,
    niter: int,
    k: int,
    timeout: float | None = 120.0,
    *,
    engine: str | None = None,
) -> EM3DRunResult:
    """The standard-MPI baseline of the paper's Figure 3.

    The first ``p`` world processes (one per machine, in host-file order)
    execute the algorithm via ``MPI_Comm_split`` — no knowledge of speeds.
    """
    p = problem.p
    if p > cluster.size:
        raise ReproError(f"problem has {p} sub-bodies but cluster only "
                         f"{cluster.size} machines")
    return run_baseline(cluster, p, _algorithm(niter, k), problem, _result,
                        timeout=timeout, engine=engine)


def run_em3d_hmpi(
    cluster: Cluster,
    problem: EM3DProblem,
    niter: int,
    k: int,
    mapper: Mapper | None = None,
    recon: bool = True,
    procs_per_machine: int = 1,
    timeout: float | None = 120.0,
    obs=None,
    *,
    engine: str | None = None,
) -> EM3DRunResult:
    """The HMPI version of the paper's Figure 5.

    Initialises the runtime, refreshes speeds with the ``Serial_em3d``
    benchmark, creates the optimal group for the Figure 4 model, and runs
    the identical algorithm on it.

    ``procs_per_machine > 1`` launches several world processes per machine
    (a normal HMPI deployment): the runtime can then co-locate sub-bodies
    on fast machines and leave very slow machines out of the group
    entirely, instead of being forced to use every machine once.
    """
    p = problem.p
    if procs_per_machine < 1:
        raise ReproError("procs_per_machine must be >= 1")
    if p > cluster.size * procs_per_machine:
        raise ReproError(f"problem has {p} sub-bodies but cluster only "
                         f"{cluster.size * procs_per_machine} process slots")

    def plan(hmpi: HMPI):
        bound = bind_em3d_model(problem, k)
        predicted = hmpi.timeof(bound, iterations=niter) if hmpi.is_host() else None
        return bound, predicted, problem

    placement = [m for m in range(cluster.size) for _ in range(procs_per_machine)]
    # The model prices one iteration of the exchange.
    return run_selected(
        cluster, plan, _algorithm(niter, k), _result, recon=recon,
        benchmark=make_recon_benchmark(k), iterations=niter,
        placement=placement, mapper=mapper, timeout=timeout, obs=obs,
        engine=engine)
