"""Fault-tolerant Jacobi: group repair + checkpoint/rollback.

The driver runs the panel Jacobi solver on an HMPI group while machines
die under it (per the cluster's fault schedule) and links drop messages
(per an attached transient-fault schedule).  Members checkpoint their
panels to the host's stable storage every ``checkpoint_every`` completed
sweeps; when a typed failure surfaces — :class:`RankFailedError` from a
halo exchange, an :class:`OperationTimeoutError`, a collateral wake —
the survivors call ``group_repair``, roll back to the latest *complete*
checkpoint, re-partition the interior rows over the repaired group, and
continue.  Because every decomposition of the Jacobi sweep computes the
same grid, the final result must be **bitwise identical** to a fault-free
run (and to the serial reference) no matter when or how often the group
was repaired — the invariant the differential fault-injection campaign in
``tests/ft`` asserts.

Free processes loop in ``group_create`` so the repair can draft them as
replacements; the host dismisses them with ``release_free`` once the
solve completes (or becomes impossible, in which case every rank returns
a typed failure outcome rather than hanging).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...cluster.network import Cluster
from ...core.checkpoint import CheckpointStore, charged_load, charged_save
from ...core.mapper import Mapper
from ...core.runtime import HMPI, run_hmpi
from ...mpi.engine import FTConfig
from ...util.errors import (
    HMPIRepairError,
    MappingError,
    OperationTimeoutError,
    RankFailedError,
    ReproError,
)
from .model import bind_jacobi_model
from .solver import initial_grid, partition_rows

__all__ = ["JacobiFTResult", "run_jacobi_ft"]

_KEY = "jacobi-grid"


@dataclass
class JacobiFTResult:
    """Outcome of a fault-tolerant Jacobi run.

    ``grid`` is None when the run ended with a typed failure (``error``
    holds the host's outcome) — the campaign's contract is "repaired
    result identical to fault-free, or a typed error", never a hang.
    """

    grid: np.ndarray | None
    makespan: float
    repairs: int
    dead_ranks: tuple[int, ...]
    final_world_ranks: tuple[int, ...]
    rows: list[int] = field(default_factory=list)
    checkpoint_saves: int = 0
    checkpoint_restores: int = 0
    error: str | None = None


def _restore_grid(n: int, seed: int, parts) -> np.ndarray:
    """Reassemble the full grid from checkpoint parts.

    Parts are ``(start_row, panel_interior)`` pairs; they may come from
    any partition (the pre-failure group's), so reassembly goes by the
    recorded start rows, not by the current partition.
    """
    grid = initial_grid(n, seed)
    for start, block in parts:
        grid[start:start + len(block), :] = block
    return grid


def _sweep_resumable(hmpi: HMPI, gid, store: CheckpointStore, n: int,
                     niter: int, k: int, seed: int,
                     checkpoint_every: int) -> np.ndarray | None:
    """One group epoch: restore, sweep to completion, gather.

    Raises the typed failure errors out to the caller, which repairs and
    re-enters with the new group.  Returns the assembled grid at the host
    (group rank 0), None at other members.
    """
    comm = gid.comm
    me = comm.rank
    p = comm.size
    if me == 0:
        done = store.latest_complete(_KEY)
        done = 0 if done is None else done
        # Drop the failed epoch's partial future: its parts may use a
        # different partition and must not pollute resumed saves.
        store.discard_after(_KEY, done)
        rows = partition_rows(n, [1.0] * p)
        header = (done, rows)
    else:
        header = None
    done, rows = comm.bcast(header, root=0)
    if done > 0:
        grid = _restore_grid(n, seed, charged_load(hmpi, store, _KEY, done))
    else:
        grid = initial_grid(n, seed)
    start = 1 + sum(rows[:me])
    my_rows = rows[me]
    panel = grid[start - 1:start + my_rows + 1].copy()
    conc = gid.my_concurrency

    sweep_t0 = hmpi.env.wtime()
    ckpt_cost = 0.0
    for it in range(done, niter):
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
        hmpi.compute(my_rows * n / k, conc)
        completed = it + 1
        if completed % checkpoint_every == 0 or completed == niter:
            ckpt_cost += charged_save(hmpi, store, _KEY, completed, me, p,
                                      (start, panel[1:-1]))

    # Close the prediction loop: the model prices one sweep, so report
    # the per-iteration time of this epoch (checkpoint charges excluded —
    # the model does not price them).
    if me == 0 and niter > done:
        from .model import jacobi_model
        elapsed = hmpi.env.wtime() - sweep_t0 - ckpt_cost
        hmpi.record_measured(jacobi_model(), elapsed / (niter - done))

    panels = comm.gather(panel[1:-1], root=0)
    # Success token: a member must not leave while the host might still
    # need it as a repair partner (a death during the gather surfaces at
    # the host only; members blocked here get the collateral typed wake
    # and re-enter repair with everyone else).
    comm.bcast(True, root=0)
    if me != 0:
        return None
    out = initial_grid(n, seed)
    row = 1
    for block in panels:
        out[row:row + len(block), :] = block
        row += len(block)
    return out


def run_jacobi_ft(
    cluster: Cluster,
    n: int,
    p: int,
    niter: int,
    k: int = 100,
    seed: int = 0,
    checkpoint_every: int = 1,
    mapper: "Mapper | None" = None,
    ft: FTConfig | None = None,
    max_repairs: int = 8,
    timeout: float | None = 120.0,
    obs=None,
    *,
    engine: str | None = None,
) -> JacobiFTResult:
    """Run the Jacobi solver to completion through machine failures.

    ``p`` is the intended group size; each repair re-targets
    ``min(p, survivors)``.  ``max_repairs`` bounds the repair attempts so
    a pathological schedule terminates with a typed outcome instead of
    looping.  Faults come from the cluster itself: schedule machine
    deaths with :func:`repro.cluster.inject_faults` and transient drops
    with :func:`repro.cluster.attach_transient_faults` before calling.
    An :class:`repro.obs.Observability` passed as ``obs`` collects
    metrics, runtime spans (including repairs and checkpoint traffic),
    the engine trace, and per-sweep prediction-accuracy pairs.
    """
    if p > cluster.size:
        raise ReproError(f"need {p} machines, cluster has {cluster.size}")
    if checkpoint_every < 1:
        raise ReproError("checkpoint_every must be >= 1")
    store = CheckpointStore()

    def model_for(navail: int):
        size = max(2, min(p, navail))
        rows = partition_rows(n, [1.0] * size)
        return bind_jacobi_model(size, k, n, rows)

    def app(hmpi: HMPI):
        repairs = 0
        gid = None
        try:
            while True:
                if gid is None:
                    created = hmpi.group_create(
                        model_for if hmpi.is_host() else None, mapper,
                    )
                    if created is None:
                        return ("released", repairs)
                    gid = created if created.is_member else None
                    continue
                try:
                    grid = _sweep_resumable(hmpi, gid, store, n, niter, k,
                                            seed, checkpoint_every)
                except (RankFailedError, OperationTimeoutError) as exc:
                    repairs += 1
                    if repairs > max_repairs:
                        raise HMPIRepairError(
                            f"gave up after {max_repairs} repairs"
                        ) from exc
                    gid = hmpi.group_repair(
                        gid, model_for,
                        dead=tuple(getattr(exc, "ranks", ())),
                    )
                    if not gid.is_member:
                        gid = None  # demoted to the free pool
                    continue
                if hmpi.is_host():
                    hmpi.release_free()
                    return ("done", repairs, grid, gid.world_ranks)
                return ("member-done", repairs)
        except (HMPIRepairError, MappingError) as exc:
            if hmpi.is_host():
                try:
                    hmpi.release_free()
                except Exception:
                    pass
            return ("failed", repairs, str(exc))

    result = run_hmpi(app, cluster, timeout=timeout, ft=ft, obs=obs,
                      engine=engine)
    host_out = result.results[0]
    dead: list[int] = []
    for r, exc in enumerate(result.exceptions):
        if exc is not None:
            dead.append(r)
    if host_out is not None and host_out[0] == "done":
        _, repairs, grid, world_ranks = host_out
        return JacobiFTResult(
            grid=grid, makespan=result.makespan, repairs=repairs,
            dead_ranks=tuple(dead), final_world_ranks=tuple(world_ranks),
            rows=partition_rows(n, [1.0] * len(world_ranks)),
            checkpoint_saves=store.saves,
            checkpoint_restores=store.restores,
        )
    if host_out is not None and host_out[0] == "failed":
        error = host_out[2]
    elif result.exception_of(0) is not None:
        error = f"host died: {type(result.exception_of(0)).__name__}"
    else:
        error = f"host outcome: {host_out!r}"
    return JacobiFTResult(
        grid=None, makespan=result.makespan,
        repairs=host_out[1] if host_out else 0,
        dead_ranks=tuple(dead), final_world_ranks=(),
        checkpoint_saves=store.saves, checkpoint_restores=store.restores,
        error=error,
    )
