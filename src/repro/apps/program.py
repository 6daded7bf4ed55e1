"""The paper's two programs, each written once.

An HMPI program is its MPI program with another group-formation prologue.
An application supplies three functions:

- ``algorithm(compute, comm, data) -> local``: one member's part over the
  data the group shares (EM3D's problem, matmul's distribution, Jacobi's
  panel rows), ``compute(volume)`` charging modelled work;
- ``collect(comm, local, data)``, whose group-rank-0 value is the run's
  output (default: the members' float results summed);
- ``result(output, data, algorithm_time, makespan, world_ranks, machines,
  predicted_time=None)``, which builds the application's result from what
  group rank 0 saw.

:func:`run_baseline` runs them on the first ``p`` world processes (Figure
3, the homogeneous MM baseline); :func:`run_selected` runs ``Recon``, the
application's plan step (``Timeof`` and the host's broadcast decisions,
returning the bound model, the prediction and the data), ``Group_create``,
the same timed region and ``Group_free`` (Figures 5, 8).
"""

from __future__ import annotations

from ..cluster.network import Cluster
from ..core.runtime import HMPI, run_hmpi
from ..mpi.launcher import MPIEnv, run_mpi
from ..mpi.ops import SUM

__all__ = ["run_baseline", "run_selected"]


def _sum(comm, local: float, _data) -> float:
    return comm.allreduce(local, SUM)


def _timed_region(comm, compute, algorithm, data, collect):
    """Barrier-bracketed algorithm execution; returns (output, elapsed)."""
    comm.barrier()
    t0 = comm.wtime()
    local = algorithm(compute, comm, data)
    comm.barrier()
    elapsed = comm.wtime() - t0
    return collect(comm, local, data), elapsed


def run_baseline(cluster: Cluster, p: int, algorithm, data, result,
                 collect=_sum, *, timeout, engine):
    """The MPI program on the first ``p`` world processes."""

    def app(env: MPIEnv):
        executing = 1 if env.rank < p else 0
        comm = env.comm_world.split(executing, key=env.rank)
        if not executing:
            return None
        output, elapsed = _timed_region(comm, env.compute, algorithm, data,
                                        collect)
        ranks = comm.group.world_ranks
        comm.free()
        return output, elapsed, ranks

    run = run_mpi(app, cluster, timeout=timeout, engine=engine)
    output, elapsed, ranks = run.results[0]
    return result(output, data, elapsed, run.makespan, tuple(ranks),
                  tuple(ranks))


def run_selected(cluster: Cluster, plan, algorithm, result, collect=_sum, *,
                 recon: bool, benchmark=None, iterations: int = 1,
                 placement=None, mapper, timeout, obs=None, engine):
    """The HMPI program.

    ``plan(hmpi) -> (bound_model, predicted, data)`` runs on every process
    after the optional ``Recon`` with ``benchmark``.  With ``obs``, the
    host reports the measured time per model run (the timed region
    executes ``iterations`` of them) for the accuracy report.
    """

    def app(hmpi: HMPI):
        if recon:
            hmpi.recon(benchmark)
        bound, predicted, data = plan(hmpi)
        gid = hmpi.group_create(bound, mapper)
        if not gid.is_member:
            return None
        conc = gid.my_concurrency

        def compute(volume):
            return hmpi.compute(volume, conc)

        output, elapsed = _timed_region(gid.comm, compute, algorithm, data,
                                        collect)
        if hmpi.is_host():
            hmpi.record_measured(bound, elapsed / max(1, iterations))
        out = (output, data, elapsed, gid.world_ranks, gid.mapping.machines,
               predicted)
        hmpi.group_free(gid)
        return out

    run = run_hmpi(app, cluster, placement=placement, mapper=mapper,
                   timeout=timeout, obs=obs, engine=engine)
    output, data, elapsed, ranks, machines, predicted = run.results[0]
    return result(output, data, elapsed, run.makespan, tuple(ranks),
                  tuple(machines), predicted)
