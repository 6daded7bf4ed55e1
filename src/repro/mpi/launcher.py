"""SPMD launcher: the ``mpirun`` of the simulated substrate.

An application is a Python callable ``app(env, *args, **kwargs)`` executed
once per rank.  The :class:`MPIEnv` handed to it provides the world
communicator, the rank's machine, ``compute(volume)`` for charging modelled
computation, and ``wtime()`` for virtual-time measurement — everything a
real MPI program obtains from its runtime plus the simulation's explicit
cost hook.

>>> from repro.cluster import paper_network
>>> def app(env):
...     env.compute(10.0)                  # 10 benchmark units of work
...     return env.comm_world.allreduce(env.rank, repro_mpi_ops.SUM)
>>> result = run_mpi(app, paper_network())       # doctest: +SKIP
>>> result.makespan                              # doctest: +SKIP
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from ..cluster.machine import Machine
from ..cluster.network import Cluster
from ..util.errors import MachineFailure, MPIError
from .communicator import Comm
from .engine import Engine, FTConfig, WORLD_CONTEXT
from .group import Group

__all__ = ["MPIEnv", "MPIRunResult", "run_mpi", "default_placement"]


class MPIEnv:
    """Per-rank execution environment passed to the application function."""

    def __init__(self, engine: Engine, world_rank: int,
                 world_group: Group | None = None):
        self._engine = engine
        self._world_rank = world_rank
        # The world group is immutable and identical for every rank; the
        # launcher passes one shared instance so setup stays O(n), not
        # O(n²) (building a fresh n-member group per rank dominates
        # start-up beyond ~1k ranks).
        if world_group is None:
            world_group = Group(range(engine.nprocs))
        self.comm_world = Comm(engine, world_group, WORLD_CONTEXT, world_rank)

    @property
    def rank(self) -> int:
        """World rank of this process."""
        return self._world_rank

    @property
    def size(self) -> int:
        """Total number of processes in the run."""
        return self._engine.nprocs

    @property
    def machine_index(self) -> int:
        """Index (within the cluster) of the machine this rank runs on."""
        return self._engine.placement[self._world_rank]

    @property
    def machine(self) -> Machine:
        """The machine this rank runs on."""
        return self._engine.cluster.machine(self.machine_index)

    @property
    def cluster(self) -> Cluster:
        return self._engine.cluster

    @property
    def placement(self) -> list[int]:
        """machine index per world rank (shared, read-only by convention)."""
        return self._engine.placement

    def compute(self, volume: float, concurrency: int | None = None) -> float:
        """Perform ``volume`` benchmark units of modelled computation.

        Advances this rank's virtual clock by the machine's load-integrated
        execution time and returns the new clock value.  ``concurrency``
        overrides how many ranks share the machine's CPU (default: every
        rank placed on it); pass the co-located *active* count when idle
        ranks are parked on the machine.
        """
        return self._engine.compute(self._world_rank, volume, concurrency)

    def wtime(self) -> float:
        """Current virtual time of this rank (MPI_Wtime)."""
        return self._engine.vtime(self._world_rank)

    def elapse(self, seconds: float) -> float:
        """Advance the clock by raw seconds (I/O stalls, fixed overheads)."""
        return self._engine.advance_clock(self._world_rank, seconds)


@dataclass
class MPIRunResult:
    """Outcome of one SPMD run.

    ``makespan`` is the virtual time at which the last rank finished — the
    quantity the paper's figures plot as "execution time".
    """

    results: list[Any]
    finish_times: list[float]
    failures: list[MachineFailure] = field(default_factory=list)
    placement: list[int] = field(default_factory=list)
    #: Per-rank terminal exception (None for ranks that returned normally).
    #: Includes fault fallout — RankFailedError, LinkFaultError,
    #: OperationTimeoutError — that ``Engine.run`` records but does not
    #: re-raise, so fault campaigns can assert on typed outcomes.
    exceptions: list[BaseException | None] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        return max(self.finish_times) if self.finish_times else 0.0

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    def result_of(self, rank: int) -> Any:
        return self.results[rank]

    def exception_of(self, rank: int) -> BaseException | None:
        return self.exceptions[rank] if self.exceptions else None


def default_placement(cluster: Cluster, nprocs: int | None = None) -> list[int]:
    """One process per machine; extra ranks wrap around round-robin.

    This mirrors a plain ``mpirun -np N`` over a host file listing each
    machine once.
    """
    n = cluster.size if nprocs is None else nprocs
    if n < 1:
        raise MPIError("need at least one process")
    return [i % cluster.size for i in range(n)]


def run_mpi(
    app: Callable[..., Any],
    cluster: Cluster,
    placement: Sequence[int] | None = None,
    *,
    nprocs: int | None = None,
    args: tuple = (),
    kwargs: dict | None = None,
    timeout: float | None = 120.0,
    tracer: Any = None,
    ft: "FTConfig | dict | None" = None,
    metrics: Any = None,
    engine: str | None = None,
    telemetry: Any = None,
) -> MPIRunResult:
    """Run ``app(env, *args, **kwargs)`` SPMD over the cluster.

    Options after ``placement`` are keyword-only and uniform across entry
    points (``run_mpi``, ``run_hmpi``, the session facade, the CLI); bad
    values raise :class:`~repro.util.errors.OptionError`.

    Parameters
    ----------
    placement:
        machine index per world rank; default one rank per machine
        (``nprocs`` ranks round-robin if given).
    timeout:
        real-time safety net per rank join, for runaway programs.
    tracer:
        optional :class:`repro.mpi.tracing.Tracer` collecting per-rank
        compute/send/recv events for Gantt rendering and validation.
    ft:
        fault-tolerance knobs (retransmission budget/backoff, default
        receive timeout, fail-fast sends): an :class:`FTConfig`, or a dict
        of its fields; default :class:`FTConfig`.
    metrics:
        optional :class:`repro.obs.MetricsRegistry`; collectives record
        which algorithm fired (and at which topology level) into it.
    engine:
        scheduling backend, ``"events"`` (single-threaded discrete-event
        core, the default) or ``"threads"`` (preemptive thread per rank);
        None means the library default.
    telemetry:
        optional :class:`repro.obs.EventBus`; the engine streams
        lifecycle events (``engine.run.start``/``run.finish`` with the
        scheduler's host-side self-profile) into it.
    """
    if placement is None:
        placement = default_placement(cluster, nprocs)
    engine = Engine(cluster, placement, tracer=tracer, ft=ft, metrics=metrics,
                    engine=engine, telemetry=telemetry)
    kw = kwargs or {}
    world_group = Group(range(engine.nprocs))

    def target(rank: int) -> Any:
        env = MPIEnv(engine, rank, world_group)
        return app(env, *args, **kw)

    engine.run(target, timeout=timeout)
    return MPIRunResult(
        results=[p.result for p in engine.procs],
        finish_times=[p.clock for p in engine.procs],
        failures=list(engine.failures),
        placement=list(placement),
        exceptions=[p.exception for p in engine.procs],
    )
