"""Application drivers a campaign can sweep.

A driver is a named function ``fn(params, rng, obs) -> metrics``
running one campaign cell: it builds the scenario (cluster, faults,
loads, churn) from the cell's parameters, executes the application
through the library's public entry points, and returns a flat dict of
deterministic metrics (virtual times, counts, selections — never
wall-clock), so result rows are bitwise reproducible from the config and
seed.  ``obs`` is an optional :class:`~repro.obs.Observability` attached
to the cell's HMPI run (``repro trace``); it never changes the metrics.

Six drivers ship:

``timeof_em3d``
    Selection-only: runs each mapper on the paper's EM3D instance and
    reports the predicted execution time of the chosen group (the
    mapper ablation of EXPERIMENTS.md).

``jacobi_ft``
    The fault-tolerant Jacobi solver through machine deaths and
    transient link faults — the campaign port of the ``tests/ft`` sweep,
    including the bitwise-vs-reference differential check.

``iterative``
    The dynamic-world driver: a chunked iterative computation on an
    HMPI group while machines churn (administrative leave/join at
    virtual times), external load varies, and the **re-selection
    policy** axis decides when the group is re-formed — ``"never"``
    (initial selection runs to completion), ``"on-failure"`` (repair
    after typed failures only), or ``"periodic"`` (re-select at every
    chunk boundary, picking up churn and load changes).

``em3d_recon``
    End-to-end EM3D, MPI baseline against HMPI on the same instance.
    It serves two campaigns: the paper's Figure 9 (sweep
    ``total_nodes`` and ``procs_per_machine``) and the recon ablation
    (``recon`` on or off under per-machine external load).  Both
    variants of a cell see the *identical* scenario: the per-run rng
    contributes one scenario seed, re-expanded per variant.

``matmul_run``
    End-to-end matrix multiplication, the homogeneous MPI baseline
    against HMPI on the same scenario (re-expanded as for
    ``em3d_recon``): the paper's Figures 10 (sweep ``l``) and 11 (sweep
    ``n``).

``groupsize_amdahl``
    Automatic group sizing on an Amdahl-style workload (divisible work
    plus a serial per-member combine at the root).  Sweeping the
    ``combine_cost`` axis shows the tuned group shrinking as the serial
    fraction grows; the cell also executes the tuned group and reports
    the measured virtual time against the prediction.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..apps.em3d import (
    bind_em3d_model,
    generate_problem,
    run_em3d_hmpi,
    run_em3d_mpi,
)
from ..apps.jacobi import jacobi_reference, run_jacobi_ft
from ..apps.jacobi.model import bind_jacobi_model
from ..apps.jacobi.solver import partition_rows
from ..apps.matmul import run_matmul_hmpi, run_matmul_mpi
from ..core.autotune import auto_create, tune_group_size
from ..core.mapper import resolve_mapper
from ..core.netmodel import NetworkModel
from ..core.runtime import HMPI, run_hmpi
from ..perfmodel import CallableModel
from ..mpi.ops import SUM
from ..mpi.scheduler import resolve_ft
from ..util.errors import (
    CampaignError,
    HMPIRepairError,
    HMPIStateError,
    MappingError,
    OperationTimeoutError,
    RankFailedError,
)
from ..util.options import check_choice
from .scenarios import apply_scenario, build_cluster, normalize_churn

__all__ = ["DRIVERS", "Driver", "resolve_driver", "RESELECTION_POLICIES"]

#: The pluggable re-selection policy axis of the ``iterative`` driver.
RESELECTION_POLICIES = ("never", "on-failure", "periodic")


@dataclass(frozen=True)
class Driver:
    """A named campaign driver with its declared parameter surface."""

    name: str
    fn: Callable[..., dict]
    params: tuple[str, ...]
    defaults: dict

    def run(self, params: dict, rng: np.random.Generator, obs=None) -> dict:
        merged = {**self.defaults, **params}
        return self.fn(merged, rng, obs)


# ----------------------------------------------------------------------
# timeof_em3d — selection-only mapper ablation
# ----------------------------------------------------------------------

def _timeof_em3d(params: dict, rng: np.random.Generator, obs) -> dict:
    problem = generate_problem(
        p=int(params["p"]),
        total_nodes=int(params["total_nodes"]),
        seed=int(params["problem_seed"]),
        boundary_fraction=float(params["boundary_fraction"]),
    )
    model = bind_em3d_model(problem, int(params["k"]))
    cluster = build_cluster(params["cluster"])
    netmodel = NetworkModel(cluster, list(range(cluster.size)))
    mapper = resolve_mapper(params["mapper"])
    candidates = list(range(cluster.size))
    fixed = {model.parent_index(): 0}
    mapping = mapper.select(model, netmodel, candidates, fixed)
    return {
        "predicted_time": float(mapping.time),
        "processes": [int(x) for x in mapping.processes],
    }


# ----------------------------------------------------------------------
# jacobi_ft — fault-injection sweep (mirrors tests/ft)
# ----------------------------------------------------------------------

def _jacobi_ft(params: dict, rng: np.random.Generator, obs) -> dict:
    n = int(params["n"])
    niter = int(params["niter"])
    grid_seed = int(params["grid_seed"])
    cluster = build_cluster(params["cluster"])
    apply_scenario(
        cluster, rng,
        deaths=params["deaths"], transient=params["transient"],
        loads=params["loads"],
    )
    res = run_jacobi_ft(
        cluster,
        n=n,
        p=int(params["p"]) if params["p"] else cluster.size,
        niter=niter,
        k=int(params["k"]),
        seed=grid_seed,
        checkpoint_every=int(params["checkpoint_every"]),
        mapper=params["mapper"],
        ft=resolve_ft(params["ft"]) if params["ft"] else None,
        max_repairs=int(params["max_repairs"]),
        timeout=params["timeout"],
        engine=params["engine"],
        obs=obs,
    )
    recovered = res.grid is not None
    bitwise_ok = (
        bool(np.array_equal(res.grid, jacobi_reference(n, niter, grid_seed)))
        if recovered else None
    )
    return {
        "makespan": float(res.makespan),
        "recovered": recovered,
        "bitwise_ok": bitwise_ok,
        "repairs": int(res.repairs),
        "dead_ranks": [int(r) for r in res.dead_ranks],
        "checkpoint_saves": int(res.checkpoint_saves),
        "checkpoint_restores": int(res.checkpoint_restores),
        "error": res.error,
    }


# ----------------------------------------------------------------------
# iterative — the dynamic-world driver (churn + load + re-selection)
# ----------------------------------------------------------------------

def _iterative(params: dict, rng: np.random.Generator, obs) -> dict:
    policy = check_choice("re-selection policy", params["policy"],
                          RESELECTION_POLICIES, CampaignError)
    n = int(params["n"])
    p = int(params["p"])
    k = int(params["k"])
    niter = int(params["niter"])
    chunk = int(params["chunk"])
    max_repairs = int(params["max_repairs"])
    mapper = params["mapper"]
    if chunk < 1:
        raise CampaignError(f"chunk must be >= 1, got {chunk}")
    cluster = build_cluster(params["cluster"])
    apply_scenario(
        cluster, rng,
        deaths=params["deaths"], transient=params["transient"],
        loads=params["loads"],
    )
    events = normalize_churn(params["churn"], cluster.size)
    # Machines whose load model the host refreshes into the speed
    # estimates at chunk boundaries (omniscient recon: speed x share).
    load_machines = sorted(int(m) for m in (params["loads"] or {}))
    if p > cluster.size:
        raise CampaignError(
            f"need p={p} machines, cluster has {cluster.size}")

    def model_for(navail: int):
        size = max(2, min(p, navail))
        return bind_jacobi_model(size, k, n, partition_rows(n, [1.0] * size))

    def app(hmpi: HMPI):
        done = 0
        reselections = 0
        repairs = 0
        applied = 0
        skipped = 0
        gid = None

        def refresh() -> None:
            # Host-only: apply churn events that are due and fold current
            # load shares into the speed estimates, so the next selection
            # sees the world as it is now.
            nonlocal applied, skipped
            now = hmpi.wtime()
            while applied + skipped < len(events):
                ev = events[applied + skipped]
                if ev.t > now:
                    break
                try:
                    if ev.op == "leave":
                        hmpi.depart_machine(ev.machine)
                    else:
                        hmpi.admit_machine(ev.machine)
                    applied += 1
                except HMPIStateError:
                    # e.g. joining a machine that has since died: the
                    # event is impossible now; skip it, typed and counted.
                    skipped += 1
            if load_machines:
                with hmpi.state.lock:
                    netmodel = hmpi.state.netmodel
                    for m in load_machines:
                        machine = cluster.machines[m]
                        share = machine.load.share_at(now)
                        netmodel.update_speed(m, machine.speed * share)

        def finish(outcome: str, final, error) -> dict:
            if hmpi.is_host():
                try:
                    hmpi.release_free()
                except Exception:
                    pass
            return {
                "outcome": outcome, "iterations": done,
                "reselections": reselections, "repairs": repairs,
                "churn_applied": applied, "churn_skipped": skipped,
                "final_group": final, "error": error,
            }

        try:
            while True:
                if gid is None:
                    if hmpi.is_host():
                        refresh()
                    created = hmpi.group_create(
                        model_for if hmpi.is_host() else None, mapper,
                    )
                    if created is None:
                        return {"outcome": "released"}
                    gid = created if created.is_member else None
                    continue
                comm = gid.comm
                me = comm.rank
                header = (done, min(chunk, niter - done)) if me == 0 else None
                done, todo = comm.bcast(header, root=0)
                try:
                    rows = partition_rows(n, [1.0] * gid.size)
                    conc = gid.my_concurrency
                    for _ in range(todo):
                        hmpi.compute(rows[me] * n / k, conc)
                        comm.allreduce(1, SUM)
                    done += todo
                except (RankFailedError, OperationTimeoutError) as exc:
                    if policy != "on-failure":
                        return finish(
                            "failed", None,
                            f"{type(exc).__name__}: {exc}",
                        )
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
                        gid = None
                    continue
                if done >= niter:
                    final = ([int(r) for r in gid.world_ranks]
                             if hmpi.is_host() else None)
                    return finish("done", final, None)
                if hmpi.is_host():
                    refresh()
                if policy == "periodic":
                    hmpi.group_free(gid)
                    gid = None
                    reselections += 1
        except (HMPIRepairError, MappingError) as exc:
            return finish("failed", None, str(exc))

    result = run_hmpi(
        app, cluster, timeout=params["timeout"],
        ft=resolve_ft(params["ft"]) if params["ft"] else None,
        engine=params["engine"], obs=obs,
    )
    host = result.results[0]
    if not isinstance(host, dict) or "iterations" not in host:
        exc = result.exception_of(0)
        reason = (f"host died: {type(exc).__name__}" if exc is not None
                  else f"host outcome: {host!r}")
        return {
            "makespan": float(result.makespan), "outcome": "failed",
            "iterations": 0, "reselections": 0, "repairs": 0,
            "churn_applied": 0, "churn_skipped": 0, "final_group": None,
            "error": reason,
        }
    return {"makespan": float(result.makespan), **host}


# ----------------------------------------------------------------------
# em3d_recon — EM3D, MPI vs HMPI (Figure 9, recon ablation)
# ----------------------------------------------------------------------

def _world_factory(params: dict, rng: np.random.Generator):
    """A ``world()`` that builds the cell's scenario afresh on each call.

    One scenario seed per cell, re-expanded for each variant: the MPI
    baseline and the HMPI run face bit-identical load models even when
    the load spec is stochastic.
    """
    scenario_seed = int(rng.integers(0, 2**63 - 1))

    def world():
        cluster = build_cluster(params["cluster"])
        apply_scenario(
            cluster, np.random.default_rng(scenario_seed),
            deaths=params["deaths"], transient=params["transient"],
            loads=params["loads"],
        )
        return cluster

    return world


def _versus(mpi, hmpi, checksum_ok: bool, group_machines) -> dict:
    """The metrics of one MPI-baseline-against-HMPI cell."""
    return {
        "mpi_time": float(mpi.algorithm_time),
        "hmpi_time": float(hmpi.algorithm_time),
        "predicted_time": float(hmpi.predicted_time),
        "speedup": float(mpi.algorithm_time / hmpi.algorithm_time),
        "checksum_ok": bool(checksum_ok),
        "group_machines": [int(m) for m in group_machines],
    }


def _em3d_recon(params: dict, rng: np.random.Generator, obs) -> dict:
    problem = generate_problem(
        p=int(params["p"]),
        total_nodes=int(params["total_nodes"]),
        seed=int(params["problem_seed"]),
        boundary_fraction=float(params["boundary_fraction"]),
    )
    run = {"niter": int(params["niter"]), "k": int(params["k"]),
           "timeout": params["timeout"], "engine": params["engine"]}
    world = _world_factory(params, rng)
    mpi = run_em3d_mpi(world(), problem, **run)
    hmpi = run_em3d_hmpi(
        world(), problem, **run, mapper=params["mapper"],
        recon=bool(params["recon"]),
        procs_per_machine=int(params["procs_per_machine"]), obs=obs,
    )
    # identical numerics: the checksums agree bit for bit
    return _versus(mpi, hmpi, mpi.checksum == hmpi.checksum,
                   hmpi.group_machines)


# ----------------------------------------------------------------------
# matmul_run — matrix multiplication, MPI vs HMPI
# ----------------------------------------------------------------------

def _matmul_run(params: dict, rng: np.random.Generator, obs) -> dict:
    run = {"n": int(params["n"]), "r": int(params["r"]),
           "m": int(params["m"]), "seed": int(params["seed"]),
           "timeout": params["timeout"], "engine": params["engine"]}
    l = None if params["l"] is None else int(params["l"])
    world = _world_factory(params, rng)
    mpi = run_matmul_mpi(world(), **run)
    hmpi = run_matmul_hmpi(world(), **run, l=l, mapper=params["mapper"],
                           obs=obs)
    # The distributions sum the products in different orders; one
    # process per machine, so world ranks are machine indices.
    return _versus(mpi, hmpi,
                   math.isclose(hmpi.checksum, mpi.checksum, rel_tol=1e-9),
                   hmpi.group_world_ranks)


# ----------------------------------------------------------------------
# groupsize_amdahl — automatic group sizing
# ----------------------------------------------------------------------

def _amdahl_family(total_work: float, partial_bytes: float,
                   combine_cost: float):
    def family(p):
        def node_volume(i):
            base = total_work / p
            return base + (combine_cost * (p - 1) if i == 0 else 0.0)

        return CallableModel(
            p,
            node_volume=node_volume,
            link_volume=lambda s, d: partial_bytes if d == 0 else 0.0,
            name=f"amdahl-{p}",
        )

    return family


def _groupsize_amdahl(params: dict, rng: np.random.Generator, obs) -> dict:
    total_work = float(params["total_work"])
    partial_bytes = float(params["partial_bytes"])
    combine_cost = float(params["combine_cost"])
    mapper = params["mapper"]
    cluster = build_cluster(params["cluster"])
    apply_scenario(
        cluster, rng,
        deaths=params["deaths"], transient=params["transient"],
        loads=params["loads"],
    )
    max_p = int(params["max_p"]) or cluster.size
    if max_p < 1 or max_p > cluster.size:
        raise CampaignError(
            f"max_p must be in [1, {cluster.size}], got {max_p}")
    sizes = range(1, max_p + 1)
    family = _amdahl_family(total_work, partial_bytes, combine_cost)

    def app(hmpi: HMPI):
        if hmpi.is_host():
            sweep = tune_group_size(hmpi, family, sizes, mapper)
            info = (sweep.best_p, sweep.best_time,
                    sweep.predictions.get(max_p))
        else:
            info = None
        best_p, best_time, all_machines = hmpi.comm_world.bcast(info, root=0)

        gid, chosen = auto_create(hmpi, family, sizes, mapper)
        measured = None
        if gid.is_member:
            comm = gid.comm
            conc = gid.my_concurrency
            comm.barrier()
            t0 = comm.wtime()
            # the modelled pattern: partials to the root, root combines
            if comm.rank != 0:
                comm.send(b"", 0, tag=0, nbytes=int(partial_bytes))
            hmpi.compute(total_work / chosen, conc)
            if comm.rank == 0:
                for s in range(1, comm.size):
                    comm.recv(s, tag=0)
                hmpi.compute(combine_cost * (chosen - 1), conc)
            comm.barrier()
            measured = comm.wtime() - t0
            hmpi.group_free(gid)
        return best_p, best_time, all_machines, measured

    res = run_hmpi(
        app, cluster, timeout=params["timeout"], engine=params["engine"],
        obs=obs,
    )
    best_p, best_time, all_machines, _ = res.results[0]
    measured = max(m for *_, m in res.results if m is not None)
    return {
        "tuned_p": int(best_p),
        "predicted_time": float(best_time),
        "all_machines_time": float(all_machines),
        "measured_time": float(measured),
        "makespan": float(res.makespan),
    }


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_SCENARIO_DEFAULTS = {
    "cluster": "paper",
    "deaths": None,
    "transient": None,
    "loads": None,
}

_EXEC_DEFAULTS = {
    "engine": None,
    "ft": None,
    "timeout": 120.0,
}

DRIVERS: dict[str, Driver] = {
    "timeof_em3d": Driver(
        name="timeof_em3d",
        fn=_timeof_em3d,
        params=("cluster", "mapper", "p", "total_nodes", "problem_seed",
                "k", "boundary_fraction"),
        defaults={
            "cluster": "paper", "mapper": "default", "p": 7,
            "total_nodes": 21_000, "problem_seed": 5, "k": 100,
            "boundary_fraction": 0.3,
        },
    ),
    "jacobi_ft": Driver(
        name="jacobi_ft",
        fn=_jacobi_ft,
        params=("cluster", "n", "p", "niter", "k", "grid_seed",
                "checkpoint_every", "mapper", "ft", "max_repairs",
                "timeout", "engine", "deaths", "transient", "loads"),
        defaults={
            **_SCENARIO_DEFAULTS, **_EXEC_DEFAULTS,
            "cluster": {"kind": "uniform", "speeds": [100.0] * 4},
            "n": 18, "p": 0, "niter": 12, "k": 100, "grid_seed": 0,
            "checkpoint_every": 2, "mapper": None, "max_repairs": 8,
            "timeout": 60.0,
        },
    ),
    "iterative": Driver(
        name="iterative",
        fn=_iterative,
        params=("cluster", "n", "p", "niter", "k", "chunk", "policy",
                "mapper", "ft", "max_repairs", "timeout", "engine",
                "deaths", "transient", "loads", "churn"),
        defaults={
            **_SCENARIO_DEFAULTS, **_EXEC_DEFAULTS,
            "cluster": {"kind": "uniform", "speeds": [100.0] * 4},
            "n": 24, "p": 4, "niter": 24, "k": 100, "chunk": 4,
            "policy": "never", "mapper": None, "max_repairs": 8,
            "timeout": 60.0, "churn": None,
        },
    ),
    "groupsize_amdahl": Driver(
        name="groupsize_amdahl",
        fn=_groupsize_amdahl,
        params=("cluster", "combine_cost", "total_work", "partial_bytes",
                "max_p", "mapper", "timeout", "engine", "deaths",
                "transient", "loads"),
        defaults={
            **_SCENARIO_DEFAULTS, **_EXEC_DEFAULTS,
            "combine_cost": 0.0, "total_work": 900.0,
            "partial_bytes": 64 * 1024, "max_p": 0, "mapper": None,
            "timeout": 60.0,
        },
    ),
    "em3d_recon": Driver(
        name="em3d_recon",
        fn=_em3d_recon,
        params=("cluster", "p", "total_nodes", "problem_seed",
                "boundary_fraction", "k", "niter", "recon",
                "procs_per_machine", "mapper", "timeout", "engine",
                "deaths", "transient", "loads"),
        defaults={
            **_SCENARIO_DEFAULTS, **_EXEC_DEFAULTS,
            "p": 9, "total_nodes": 18_000, "problem_seed": 8,
            "boundary_fraction": 0.3, "k": 100, "niter": 6,
            "recon": True, "procs_per_machine": 2, "mapper": None,
        },
    ),
    "matmul_run": Driver(
        name="matmul_run",
        fn=_matmul_run,
        params=("cluster", "n", "r", "m", "l", "seed", "mapper", "timeout",
                "engine", "deaths", "transient", "loads"),
        defaults={
            **_SCENARIO_DEFAULTS, **_EXEC_DEFAULTS,
            "n": 9, "r": 9, "m": 3, "l": None, "seed": 0, "mapper": None,
        },
    ),
}


def resolve_driver(name) -> Driver:
    """Look up a campaign driver by name (CampaignError on unknown)."""
    if isinstance(name, Driver):
        return name
    check_choice("campaign driver", name, tuple(DRIVERS), CampaignError)
    return DRIVERS[name]
