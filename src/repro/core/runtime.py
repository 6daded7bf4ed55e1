"""The HMPI runtime system.

One :class:`HMPIRuntimeState` is shared by all ranks of a run (the
algorithm-independent part of the runtime); each rank holds an
:class:`HMPI` environment (created by :func:`run_hmpi`) exposing the
paper's principal operations as methods:

===============================  =====================================
paper                            here
===============================  =====================================
``HMPI_Init / HMPI_Finalize``    ``run_hmpi`` brackets the app
``HMPI_COMM_WORLD``              ``hmpi.comm_world``
``HMPI_Is_host/Is_free/...``     ``hmpi.is_host()/is_free()/is_member``
``HMPI_Recon``                   ``hmpi.recon``
``HMPI_Timeof``                  ``hmpi.timeof``
``HMPI_Group_create``            ``hmpi.group_create``
``HMPI_Group_free``              ``hmpi.group_free``
``HMPI_Get_comm``                ``group.comm``
===============================  =====================================

(The flat C-style names are also provided, see :mod:`repro.core.api`.)

Group creation is collective over the parent (host) and all free
processes.  The host runs the selection algorithm against the network
model and distributes the chosen mapping point-to-point, so processes that
are busy in other groups are never touched — matching the paper's rule
that ``HMPI_Group_create`` "must be called by the parent and all the
processes, which are not members of any HMPI group".

**Fault tolerance** (the direction the paper's conclusion names, FT-MPI
style).  The creation exchange is a two-phase *map/commit* protocol so a
mid-exchange machine death can never leave participants with divergent
mappings; ``group_repair`` reforms a group around the survivors of a
broken one, marking dead machines in the network model (which bumps the
speed epoch, so every cached selection and ``HMPI_Timeof`` answer is
recomputed over the surviving subset — degraded mode).  See
``docs/FAULTS.md`` for the walkthrough.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Sequence
from contextlib import contextmanager, nullcontext
from typing import TYPE_CHECKING, Any

from ..cluster.network import Cluster
from ..mpi.communicator import Comm
from ..mpi.engine import FTConfig
from ..mpi.group import Group
from ..mpi.launcher import MPIEnv, MPIRunResult, default_placement, run_mpi
from ..perfmodel.model import AbstractBoundModel, model_key
from ..util.errors import (
    HMPIRepairError,
    HMPIStateError,
    MachineFailure,
    MappingError,
    RankFailedError,
)
from .group import HMPIGroup
from .mapper import (
    DefaultMapper,
    Mapper,
    Mapping,
    resolve_mapper,
)
from .netmodel import NetworkModel
from .seleng import SelectionStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.core import Observability

__all__ = ["HMPI", "HMPIRuntimeState", "run_hmpi", "HOST_RANK"]

#: World rank of the host process (the paper's dedicated host-processor).
HOST_RANK = 0

# Internal world-context tags (distinct from both user tags >= 0 and
# collective tags <= -1_000_000 by living in their own negative band).
_TAG_GROUP_CREATE = -2_000_000
_TAG_REPAIR = -2_000_001

#: Bound on protocol-level receive retries after a spurious wake (stall
#: resolution may wake a waiter as collateral damage of an unrelated
#: failure); guarantees real-time termination of the exchange loops.  A
#: free process can sit through several repairs it takes no part in, each
#: contributing a few collateral wakes, so the bound is generous.
_MAX_PROTO_RETRIES = 64


class HMPIRuntimeState:
    """Shared, lock-protected state of one HMPI run.

    ``mapper`` may be a :class:`Mapper` instance or a registry string
    (``"default"``, ``"greedy"``, ...); ``None`` selects the runtime
    default.  The state also owns the **selection cache**: repeated
    ``timeof``/``group_create`` on the same model in an unchanged world
    are answered in O(1), keyed by (model identity, mapper identity,
    network-model speed epoch, cluster version, candidate set, pins).
    ``selection_stats`` counts cache hits/misses and engine evaluations.
    """

    #: Cached selections retained (LRU); stale worlds age out naturally.
    SELECTION_CACHE_SIZE = 64

    def __init__(self, netmodel: NetworkModel, mapper: "Mapper | str | None" = None,
                 obs: "Observability | None" = None):
        self.netmodel = netmodel
        self.mapper = resolve_mapper(mapper, default=None) or DefaultMapper()
        # Observability bundle (metrics/spans/accuracy); None = off, and
        # every instrumented path then costs a single attribute check.
        self.obs = obs
        self.lock = threading.RLock()
        # Free = not a member of any HMPI group.  The host is permanently
        # the parent of the world group, so it is never "free" but always
        # participates in creation.
        self.free: set[int] = set(range(netmodel.nprocs)) - {HOST_RANK}
        self.creation_counter = 0
        self.dead: set[int] = set()  # world ranks on failed machines
        # World ranks administratively withdrawn (machine churn "leave"):
        # excluded from selection like dead ranks, but their machines are
        # healthy and they can be readmitted (churn "join") — see
        # HMPI.depart_machine / HMPI.admit_machine.
        self.departed: set[int] = set()
        # Rendezvous counters for group_free (gid -> arrivals); waiters
        # block in the engine (wait_until), not on a real-time condition.
        self.free_rendezvous: dict[int, int] = {}
        self.selection_stats = SelectionStats()
        # key -> (Mapping, model ref, mapper ref); the refs keep the ids in
        # the key stable for the entry's lifetime.
        self._selection_cache: OrderedDict[tuple, tuple[Mapping, Any, Any]] = (
            OrderedDict()
        )
        if obs is not None:
            # The registry absorbs the ad-hoc SelectionStats: snapshots
            # re-publish its live totals as hmpi.selection.* series.
            obs.attach_selection_stats(self.selection_stats)

    def _emit(self, category: str, name: str, **payload: Any) -> None:
        """Stream a telemetry event when the obs bundle carries a bus.

        Costs two attribute checks when telemetry is off; hot categories
        (``selection``) are tamed by the bus's per-category sampling, not
        by the emitter.
        """
        obs = self.obs
        if obs is not None and obs.telemetry is not None:
            obs.telemetry.emit(category, name, **payload)

    def participants(self) -> list[int]:
        """Host plus free processes, excluding dead and departed ranks."""
        with self.lock:
            alive_free = sorted(self.free - self.dead - self.departed)
        return [HOST_RANK] + alive_free

    # ------------------------------------------------------------------
    # selection (with cache)
    # ------------------------------------------------------------------
    def select(
        self,
        model: AbstractBoundModel,
        mapper: "Mapper | str | None" = None,
        fixed: dict[int, int] | None = None,
        candidates: Sequence[int] | None = None,
        info: dict | None = None,
    ) -> Mapping:
        """Solve (or recall) the selection problem for ``model``.

        Cached per (model, mapper, speed epoch, cluster version,
        candidates, pins): the prediction stays valid until a ``recon``
        bumps the network model's speed epoch, a machine failure or churn
        is recorded (same epoch mechanism), the cluster is edited (its
        :attr:`~repro.cluster.network.Cluster.version`), or the pool of
        free processes changes.  ``candidates`` overrides
        the default pool (host + free − dead) — group repair passes the
        survivor set explicitly.  ``info``, when given, is filled with how
        the answer was obtained (``cache`` hit/miss, candidate count,
        engine ``evaluations`` spent) for span attributes and debugging.
        """
        with self.lock:
            netmodel = self.netmodel
            use_mapper = resolve_mapper(mapper, default=self.mapper)
            if candidates is None:
                candidates = tuple(self.participants())
            else:
                candidates = tuple(candidates)
            if info is not None:
                info["candidates"] = len(candidates)
            # The default pin (the model's parent on the host) follows from
            # the model, whose identity is already in the key, so a hit
            # never evaluates it.
            key = (
                id(model),
                id(use_mapper),
                netmodel.speed_epoch,
                netmodel.cluster.version,
                candidates,
                None if fixed is None else tuple(sorted(fixed.items())),
            )
            entry = self._selection_cache.get(key)
            if entry is not None:
                self._selection_cache.move_to_end(key)
                self.selection_stats.cache_hits += 1
                if info is not None:
                    info["cache"] = "hit"
                    info["evaluations"] = 0
                self._emit("selection", "cache.hit",
                           candidates=len(candidates))
                return entry[0]
            if fixed is None:
                fixed = {model.parent_index(): HOST_RANK}
            self.selection_stats.cache_misses += 1
            self._emit("selection", "cache.miss",
                       candidates=len(candidates),
                       epoch=netmodel.speed_epoch)
            stats = self.selection_stats
            evals_before = stats.evaluations
            if info is not None:
                info["cache"] = "miss"
        mapping = use_mapper.select(
            model, netmodel, list(candidates), fixed, stats=stats
        )
        with self.lock:
            if info is not None:
                info["evaluations"] = stats.evaluations - evals_before
            self._selection_cache[key] = (mapping, model, use_mapper)
            while len(self._selection_cache) > self.SELECTION_CACHE_SIZE:
                self._selection_cache.popitem(last=False)
        return mapping


class HMPI:
    """Per-rank HMPI environment (wraps the rank's MPI environment)."""

    def __init__(self, env: MPIEnv, state: HMPIRuntimeState):
        self.env = env
        self.state = state
        self.comm_world = env.comm_world  # the paper's HMPI_COMM_WORLD

    # ------------------------------------------------------------------
    # observability plumbing
    # ------------------------------------------------------------------
    @property
    def obs(self) -> "Observability | None":
        """The run's observability bundle (None when not instrumented)."""
        return self.state.obs

    def _span(self, name: str, **attrs: Any):
        """Span context around a runtime operation; no-op without obs."""
        obs = self.state.obs
        if obs is None:
            return nullcontext()
        return obs.spans.span(name, self.rank, self.env.wtime, **attrs)

    def _count(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        obs = self.state.obs
        if obs is not None:
            obs.metrics.counter(name, **labels).inc(amount)
            obs.metrics.mark_vtime(self.env.wtime())

    def record_measured(self, model: "AbstractBoundModel | str",
                        seconds: float) -> None:
        """Report the engine-measured execution time of ``model``'s region.

        Resolves the most recent unresolved ``Timeof``/selection estimate
        of the same model (see
        :class:`repro.obs.accuracy.PredictionTracker`), feeding the
        predicted-vs-measured accuracy report.  No-op without obs.
        """
        obs = self.state.obs
        if obs is None:
            return
        obs.accuracy.measure(model_key(model), seconds)

    # ------------------------------------------------------------------
    # identity predicates
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """World rank within HMPI_COMM_WORLD."""
        return self.env.rank

    @property
    def size(self) -> int:
        return self.env.size

    def is_host(self) -> bool:
        """HMPI_Is_host: whether this is the dedicated host process."""
        return self.rank == HOST_RANK

    def is_free(self) -> bool:
        """HMPI_Is_free: not a member of any HMPI group."""
        with self.state.lock:
            return self.rank in self.state.free

    def is_member(self, group: HMPIGroup) -> bool:
        """HMPI_Is_member for a created group handle."""
        return group.is_member

    # ------------------------------------------------------------------
    # computation / timing passthroughs
    # ------------------------------------------------------------------
    def compute(self, volume: float, concurrency: int | None = None) -> float:
        """Charge ``volume`` benchmark units of modelled computation.

        Pass ``concurrency=group.my_concurrency`` inside a group's
        algorithm so speed sharing matches what the selection assumed.
        """
        return self.env.compute(volume, concurrency)

    def wtime(self) -> float:
        return self.env.wtime()

    # ------------------------------------------------------------------
    # HMPI_Recon
    # ------------------------------------------------------------------
    def recon(
        self,
        benchmark: Callable[[MPIEnv], Any] | None = None,
        volume: float = 1.0,
    ) -> float:
        """Refresh the runtime's processor-speed estimates.

        Collective over HMPI_COMM_WORLD.  Every process executes the
        benchmark function (default: ``volume`` benchmark units of pure
        computation), the elapsed virtual times are allgathered, and the
        network model's speed estimates are replaced by what the benchmark
        actually observed — capturing external load, exactly as the paper
        prescribes for multi-user machines.

        Returns this process's own measured speed (benchmark units/sec).
        """
        with self._span("HMPI_Recon", volume=volume) as sp:
            t0 = self.env.wtime()
            if benchmark is None:
                self.env.compute(volume)
            else:
                benchmark(self.env)
            elapsed = self.env.wtime() - t0
            times = self.comm_world.allgather(elapsed)
            with self.state.lock:
                self.state.netmodel.update_speeds_from_benchmark(times, volume)
            if sp is not None:
                sp.attrs["elapsed"] = elapsed
                sp.attrs["speed"] = volume / elapsed
            self._count("hmpi.recon.calls")
        return volume / elapsed

    # ------------------------------------------------------------------
    # HMPI_Timeof
    # ------------------------------------------------------------------
    def timeof(
        self,
        model: AbstractBoundModel,
        mapper: "Mapper | str | None" = None,
        iterations: float = 1.0,
    ) -> float:
        """Predict the execution time of ``model`` without running it.

        Local operation: runs the selection algorithm against the current
        network model and returns the predicted time of the best group,
        scaled by ``iterations`` (the model describes one scheme run; the
        paper's models describe one iteration/step sequence).  ``mapper``
        may be an instance or a registry string.  Selections are cached:
        repeated calls on the same model are O(1) until ``recon`` refreshes
        the speed estimates, the cluster is edited, or the free-process
        pool changes.
        """
        obs = self.state.obs
        if obs is None:
            return self.state.select(model, mapper).time * iterations
        info: dict = {}
        with self._span("HMPI_Timeof", model=model_key(model)) as sp:
            mapping = self.state.select(model, mapper, info=info)
            predicted = mapping.time * iterations
            sp.attrs.update(info, predicted=predicted)
            obs.accuracy.predict(
                model_key(model), predicted, vtime=self.env.wtime(),
                mapper=type(resolve_mapper(mapper,
                                           default=self.state.mapper)).__name__,
            )
            self._count("hmpi.timeof.calls")
        return predicted

    @property
    def selection_stats(self) -> SelectionStats:
        """Selection-cache and engine counters of this run."""
        return self.state.selection_stats

    # ------------------------------------------------------------------
    # HMPI_Group_create / HMPI_Group_free
    # ------------------------------------------------------------------
    def group_create(
        self,
        model: "AbstractBoundModel | Callable[[int], AbstractBoundModel]",
        mapper: "Mapper | str | None" = None,
    ) -> HMPIGroup | None:
        """Create the group predicted to execute ``model`` fastest.

        Collective over the host and all free processes.  The host solves
        the selection problem and distributes the mapping; members obtain a
        communicator whose rank order equals the model's abstract-processor
        order.  ``model`` is consulted only on the host and may be a
        callable ``n_candidates -> bound model`` (fault-tolerant callers
        size the group to however many processes survive).

        Failure-aware: the exchange is a two-phase *map/commit* protocol.
        The host resends an updated mapping (with the dead rank excluded
        and the selection recomputed) if a participant dies before the
        commit goes out, so no participant can act on a superseded
        mapping.  Returns None at a free process the host released with
        :meth:`release_free`.
        """
        world = self.comm_world
        with self._span("HMPI_Group_create",
                        role="host" if self.is_host() else "free") as sp:
            if self.is_host():
                with self.state.lock:
                    counter = self.state.creation_counter
                    self.state.creation_counter += 1
                recipients = {r: _TAG_GROUP_CREATE for r in self._free_pool()}
                mapping = self._host_distribute(counter, model, mapper,
                                                recipients, span=sp)
                self._count("hmpi.groups.created")
            else:
                if not self.is_free():
                    self._raise_if_doomed()
                    raise HMPIStateError(
                        f"HMPI_Group_create called by busy non-host process "
                        f"(world rank {self.rank})"
                    )
                got = self._await_mapping(_TAG_GROUP_CREATE)
                if got is None:  # released by the host
                    if sp is not None:
                        sp.attrs["released"] = True
                    return None
                counter, mapping = got
                with self.state.lock:
                    self.state.creation_counter = max(
                        self.state.creation_counter, counter + 1
                    )
            if sp is not None:
                sp.attrs.update(gid=counter, size=len(mapping.processes),
                                predicted=mapping.time,
                                member=self.rank in mapping.processes)
            return self._materialize(counter, mapping)

    # -- creation/repair exchange internals ----------------------------

    def _free_pool(self, include_departed: bool = False) -> list[int]:
        """Free, alive, still-running ranks able to join a new group.

        Departed ranks (administrative churn "leave") are excluded from
        selection exchanges; ``release_free`` passes
        ``include_departed=True`` so ranks parked through an absence still
        receive their release sentinel at the end of the run.
        """
        engine = self.comm_world._engine
        with self.state.lock:
            pool = self.state.free - self.state.dead
            if not include_departed:
                pool -= self.state.departed
        return [r for r in sorted(pool) if not engine.procs[r].finished]

    def _host_distribute(
        self,
        counter: int,
        model: "AbstractBoundModel | Callable[[int], AbstractBoundModel]",
        mapper: "Mapper | str | None",
        recipients: dict[int, int],
        span: Any = None,
    ) -> Mapping:
        """Two-phase mapping exchange, host side (``rank -> tag`` targets).

        Phase 1 sends ``("map", counter, attempt, ...)`` to every living
        recipient; phase 2 sends ``("commit", counter, attempt)``.  A send
        failure in phase 1 marks the rank dead, re-runs the selection over
        the survivors and restarts with ``attempt + 1`` — per-pair message
        ordering guarantees every recipient sees that map before its
        commit.  A phase-2 failure only marks the rank dead: if it was a
        selected member the group is born broken and the first operation
        on it surfaces a typed error, escalating to ``group_repair``.

        ``model`` may be a callable ``n_candidates -> bound model`` so a
        death *during* the exchange can shrink the requested group instead
        of making the selection infeasible.
        """
        world = self.comm_world
        attempt = 0
        while True:
            with self.state.lock:
                targets = [r for r in sorted(recipients)
                           if r not in self.state.dead]
            candidates = [HOST_RANK] + targets
            use_model = model
            if callable(model) and not isinstance(model, AbstractBoundModel):
                use_model = model(len(candidates))
            info: dict | None = {} if span is not None else None
            try:
                mapping = self.state.select(use_model, mapper,
                                            candidates=candidates, info=info)
            except MappingError:
                for r in targets:
                    try:
                        world._send_internal(("abort", counter, attempt),
                                             r, recipients[r])
                    except RankFailedError:
                        pass
                raise
            payload = ("map", counter, attempt,
                       mapping.processes, mapping.machines, mapping.time)
            restart = False
            for r in targets:
                try:
                    world._send_internal(payload, r, recipients[r])
                except RankFailedError as exc:
                    self._mark_ranks_dead(set(exc.ranks) | {r})
                    restart = True
                    break
            if restart:
                attempt += 1
                continue
            for r in targets:
                try:
                    world._send_internal(("commit", counter, attempt),
                                         r, recipients[r])
                except RankFailedError as exc:
                    # Too late to reselect (earlier recipients may already
                    # be committed); the group may be born broken.
                    self._mark_ranks_dead(set(exc.ranks) | {r})
            obs = self.state.obs
            if obs is not None:
                if span is not None:
                    span.attrs.update(info or {}, attempts=attempt + 1,
                                      model=model_key(use_model))
                # The selection's own estimate is a prediction of this
                # group's execution time; the app resolves it by calling
                # record_measured after running the algorithm.
                obs.accuracy.predict(
                    model_key(use_model), mapping.time,
                    vtime=self.env.wtime(),
                    mapper=type(resolve_mapper(
                        mapper, default=self.state.mapper)).__name__,
                )
            return mapping

    def _await_mapping(self, tag: int) -> "tuple[int, Mapping] | None":
        """Two-phase mapping exchange, recipient side.

        Keeps the *latest* map and returns on the commit matching it; maps
        superseded before their commit are simply overwritten.  Spurious
        wakes (collateral :class:`RankFailedError` from stall resolution
        while the host is alive and mid-repair) retry, bounded.  Returns
        None on a ``release`` sentinel, raises :class:`HMPIRepairError`
        on ``abort`` or host death.
        """
        world = self.comm_world
        last: tuple | None = None
        retries = 0
        while True:
            try:
                payload = world._recv_internal(HOST_RANK, tag)
            except RankFailedError as exc:
                if HOST_RANK in exc.ranks:
                    raise HMPIRepairError(
                        "host failed during group formation"
                    ) from exc
                # We may BE the casualty everyone is being woken about: a
                # process on a doomed machine, skipped by the host, would
                # otherwise spin here on collateral wakes.
                self._raise_if_doomed()
                retries += 1
                if retries > _MAX_PROTO_RETRIES:
                    raise
                continue
            kind = payload[0]
            if kind == "map":
                last = payload
            elif kind == "release":
                return None
            elif kind == "abort":
                raise HMPIRepairError(
                    f"host aborted group formation {payload[1]}: "
                    f"no feasible mapping over the survivors"
                )
            elif kind == "commit":
                _, counter, attempt = payload
                if last is not None and last[1] == counter and last[2] == attempt:
                    mapping = Mapping(tuple(last[3]), tuple(last[4]), last[5])
                    return counter, mapping
                # Commit of a superseded attempt: ignore (cannot normally
                # happen — commits follow their own map on the ordered
                # channel — but harmless to skip).

    def _materialize(self, counter: int, mapping: Mapping,
                     from_repair: bool = False) -> HMPIGroup:
        """Build the per-rank group handle and update free-set membership."""
        world = self.comm_world
        comm = None
        if self.rank in mapping.processes:
            ctx = world._engine.allocate_context(("hmpi-group", counter))
            comm = Comm(world._engine, Group(mapping.processes), ctx, self.rank)
            with self.state.lock:
                self.state.free.discard(self.rank)
        elif from_repair and self.rank != HOST_RANK:
            # A survivor the new selection left out returns to the free pool.
            with self.state.lock:
                self.state.free.add(self.rank)
            world._engine.poke()
        return HMPIGroup(
            gid=counter,
            mapping=mapping,
            comm=comm,
            parent_world_rank=HOST_RANK,
            my_world_rank=self.rank,
        )

    def group_free(self, group: HMPIGroup) -> None:
        """Free the group (collective over its members).

        Members synchronise on the group communicator (virtual time), mark
        themselves free, and then rendezvous in real time so that when any
        member — in particular the host, which is a member of every group
        via the pinned parent — returns, the whole membership change is
        visible to a subsequent ``group_create``.
        """
        if group.is_member:
            size = group.size
            gid = group.gid
            group.comm.barrier()
            state = self.state
            engine = self.comm_world._engine
            with state.lock:
                if self.rank != HOST_RANK:
                    state.free.add(self.rank)
                state.free_rendezvous[gid] = state.free_rendezvous.get(gid, 0) + 1
                arrived = state.free_rendezvous[gid]
            if arrived >= size:
                # Last member in: wake the engine-blocked early arrivers.
                engine.poke()
            else:
                # Engine-level wait (not a real-time condition), so the
                # rendezvous participates in stall/failure accounting and
                # cooperative backends can schedule other ranks meanwhile.
                # The predicate reads the counter without state.lock: it
                # runs under the engine lock, and lock-ordering with
                # paths that hold state.lock while poking the engine
                # forbids taking state.lock here.  The counter only grows
                # (per gid), so a lock-free read is safe.
                engine.wait_until(
                    self.rank,
                    lambda: state.free_rendezvous.get(gid, 0) >= size,
                    label=f"group_free({gid}) rendezvous",
                )
        group._mark_freed()

    # ------------------------------------------------------------------
    # fault handling (FT direction named in the paper's conclusion)
    # ------------------------------------------------------------------
    def mark_dead(self, world_rank: int) -> None:
        """Exclude a rank (on a failed machine) from future selections.

        Also marks the rank's machine dead in the network model, which
        bumps the speed epoch: every cached selection is invalidated, and
        subsequent ``HMPI_Timeof``/``HMPI_Group_create`` answer over the
        surviving subset (degraded mode).
        """
        with self.state.lock:
            if world_rank in self.state.dead:
                return
            self.state.dead.add(world_rank)
            self.state.free.discard(world_rank)
            self.state.netmodel.mark_machine_dead(
                self.state.netmodel.machine_of(world_rank)
            )
        self._count("hmpi.ranks.dead")
        self.state._emit("fault", "rank.dead", rank=world_rank,
                         vtime=self.env.wtime())
        # Blocked ranks (external waits in particular) may care.
        self.comm_world._engine.poke()

    def _mark_ranks_dead(self, ranks) -> None:
        for r in sorted(ranks):
            self.mark_dead(r)

    # ------------------------------------------------------------------
    # machine churn (administrative join/leave, beyond FT deaths)
    # ------------------------------------------------------------------
    def depart_machine(self, machine_index: int) -> None:
        """Withdraw a healthy machine from the network (churn "leave").

        Administrative counterpart of a failure: every free rank placed on
        the machine is excluded from future selections and the machine is
        flagged in the network model — bumping the speed epoch, so cached
        selections and ``HMPI_Timeof`` answers are recomputed over the
        remaining machines.  Unlike :meth:`mark_dead` the ranks stay
        alive: they keep waiting in ``HMPI_Group_create``, still receive
        the final ``release_free``, and :meth:`admit_machine` brings them
        back.  Ranks currently busy in a group are not interrupted; the
        withdrawal takes effect at the next selection.

        The host's machine cannot depart (the paper's host-processor is
        the permanent parent of every group).
        """
        with self.state.lock:
            host_machine = self.state.netmodel.machine_of(HOST_RANK)
            if machine_index == host_machine:
                raise HMPIStateError(
                    f"machine {machine_index} hosts the HMPI host process "
                    f"and cannot depart"
                )
            for r in range(self.state.netmodel.nprocs):
                if self.state.netmodel.machine_of(r) == machine_index:
                    self.state.departed.add(r)
            self.state.netmodel.mark_machine_dead(machine_index)
        self._count("hmpi.churn.departs")
        self.state._emit("churn", "machine.depart", machine=machine_index,
                         vtime=self.env.wtime())
        self.comm_world._engine.poke()

    def admit_machine(self, machine_index: int) -> None:
        """Readmit a departed machine to the network (churn "join").

        The counterpart of :meth:`depart_machine` (and, at the network-
        model level, of ``mark_machine_dead``): the machine is unflagged —
        bumping the speed epoch so stale cached selections can never be
        served — and its parked ranks rejoin the candidate pool for the
        next ``HMPI_Group_create``.  An FT death is permanent: admitting
        a machine whose ranks actually died (:meth:`mark_dead`) raises
        :class:`HMPIStateError` rather than resurrecting it.
        """
        with self.state.lock:
            for r in range(self.state.netmodel.nprocs):
                if (self.state.netmodel.machine_of(r) == machine_index
                        and r in self.state.dead):
                    raise HMPIStateError(
                        f"machine {machine_index} has failed and cannot "
                        f"be readmitted"
                    )
            self.state.netmodel.admit_machine(machine_index)
            for r in range(self.state.netmodel.nprocs):
                if self.state.netmodel.machine_of(r) == machine_index:
                    self.state.departed.discard(r)
        self._count("hmpi.churn.admits")
        self.state._emit("churn", "machine.join", machine=machine_index,
                         vtime=self.env.wtime())
        self.comm_world._engine.poke()

    def _raise_if_doomed(self) -> None:
        """Die of :class:`MachineFailure` if this process has been marked
        dead — its machine is scheduled to fail before it could make any
        further progress, so behave as the hardware will."""
        with self.state.lock:
            doomed = self.rank in self.state.dead
        if doomed:
            mach = self.env.machine
            vtime = mach.fail_at if mach.fail_at is not None else self.wtime()
            raise MachineFailure(mach.name, vtime)

    def detect_failures(self, at_vtime: float | None = None) -> set[int]:
        """Mark ranks the engine knows to be failed; return the new ones.

        Static detection against the fault schedule at ``at_vtime``
        (default: the caller's current virtual time) plus ranks whose
        threads already died of :class:`MachineFailure` — deterministic
        with respect to real-time thread interleaving for scheduled
        faults.
        """
        t = self.wtime() if at_vtime is None else at_vtime
        failed = self.comm_world._engine.failed_ranks(t)
        with self.state.lock:
            newly = failed - self.state.dead
        self._mark_ranks_dead(newly)
        return newly

    def alive_ranks(self) -> list[int]:
        """World ranks not marked dead (degraded-mode membership view)."""
        with self.state.lock:
            return [r for r in range(self.size) if r not in self.state.dead]

    def group_repair(
        self,
        broken: HMPIGroup,
        model: "AbstractBoundModel | Callable[[int], AbstractBoundModel]",
        mapper: "Mapper | str | None" = None,
        dead: Sequence[int] = (),
    ) -> HMPIGroup:
        """Reform a broken group around its survivors (HMPI_Group_repair).

        Collective over the survivors of ``broken`` — every member whose
        machine is alive must call this after observing a typed failure
        (:class:`RankFailedError` & co.) on the group, passing the world
        ranks it knows to be dead (``error.ranks``).  ``model`` is only
        consulted on the host and may be a callable ``n_candidates ->
        bound model``, invoked once the survivor count is known — the
        repaired group's size usually depends on how many processes are
        left.

        Protocol: survivors report their dead-sets to the host, which
        recv-fails (typed, deterministically) on members that are actually
        dead; the host then marks the union dead — invalidating the
        selection cache via the network model's epoch — re-runs selection
        over the survivors plus any still-waiting free processes, and runs
        the same two-phase map/commit exchange as ``group_create``.  The
        broken handle is freed on every path; survivors excluded from the
        new mapping return to the free pool (their handle reports
        non-membership).  Raises :class:`HMPIRepairError` when repair is
        impossible (host dead, or no feasible mapping over survivors).
        """
        if not broken.is_member and self.rank not in broken.mapping.processes:
            raise HMPIStateError(
                f"group_repair called by non-member (world rank {self.rank}) "
                f"of HMPI group {broken.gid}"
            )
        engine = self.comm_world._engine
        t0 = self.env.wtime()
        try:
            with self._span("HMPI_Group_repair", gid=broken.gid,
                            role="host" if self.is_host() else "member",
                            reported_dead=tuple(dead)) as sp:
                repaired = self._group_repair_exchange(broken, model, mapper,
                                                       dead, sp)
                self._count("hmpi.repairs")
                self.state._emit(
                    "fault", "group.repair", gid=broken.gid, rank=self.rank,
                    reported_dead=len(dead), vtime=self.env.wtime())
                return repaired
        finally:
            if engine.tracer is not None:
                from ..mpi.tracing import TraceEvent

                engine.tracer.record(TraceEvent(
                    rank=self.rank, kind="repair", t0=t0,
                    t1=self.env.wtime(), label=f"gid {broken.gid}",
                ))

    def _group_repair_exchange(
        self,
        broken: HMPIGroup,
        model: "AbstractBoundModel | Callable[[int], AbstractBoundModel]",
        mapper: "Mapper | str | None",
        dead: Sequence[int],
        sp: Any = None,
    ) -> HMPIGroup:
        """The survivor-census / re-selection exchange of ``group_repair``
        (split out so the public method can instrument every exit path)."""
        world = self.comm_world
        self._mark_ranks_dead(dead)
        self.detect_failures()
        if self.is_host():
            members = [r for r in broken.mapping.processes if r != HOST_RANK]
            survivors: list[int] = []
            for r in members:
                with self.state.lock:
                    if r in self.state.dead:
                        continue
                collected = False
                for _ in range(_MAX_PROTO_RETRIES):
                    try:
                        payload = world._recv_internal(r, _TAG_REPAIR)
                    except RankFailedError as exc:
                        self._mark_ranks_dead(exc.ranks)
                        with self.state.lock:
                            if r in self.state.dead:
                                break
                        continue  # collateral wake; r is alive, retry
                    self._mark_ranks_dead(payload[2])
                    survivors.append(r)
                    collected = True
                    break
                if not collected:
                    # Unreachable within the retry budget: treat as lost.
                    self.mark_dead(r)
            with self.state.lock:
                counter = self.state.creation_counter
                self.state.creation_counter += 1
            recipients = {r: _TAG_REPAIR for r in survivors}
            for r in self._free_pool():
                recipients.setdefault(r, _TAG_GROUP_CREATE)
            if sp is not None:
                sp.attrs["survivors"] = tuple(survivors)
                sp.attrs["drafted"] = tuple(
                    r for r, tag in recipients.items()
                    if tag == _TAG_GROUP_CREATE
                )
            try:
                mapping = self._host_distribute(counter, model, mapper,
                                                recipients, span=sp)
            except MappingError as exc:
                broken._mark_freed()
                raise HMPIRepairError(
                    f"cannot repair group {broken.gid}: {exc}"
                ) from exc
        else:
            with self.state.lock:
                known_dead = tuple(sorted(self.state.dead))
            try:
                world._send_internal(("report", broken.gid, known_dead),
                                     HOST_RANK, _TAG_REPAIR)
            except RankFailedError as exc:
                if HOST_RANK in exc.ranks:
                    broken._mark_freed()
                    raise HMPIRepairError(
                        "host failed during group repair"
                    ) from exc
                raise
            got = self._await_mapping(_TAG_REPAIR)
            if got is None:  # release cannot arrive on the repair tag
                broken._mark_freed()
                raise HMPIRepairError("unexpected release during repair")
            counter, mapping = got
            with self.state.lock:
                self.state.creation_counter = max(
                    self.state.creation_counter, counter + 1
                )
        broken._mark_freed()
        if sp is not None:
            sp.attrs.update(new_gid=counter, size=len(mapping.processes),
                            member=self.rank in mapping.processes)
        return self._materialize(counter, mapping, from_repair=True)

    def release_free(self) -> None:
        """Dismiss the waiting free processes (host only).

        Each free process blocked in ``group_create`` receives a release
        sentinel and returns None from it, letting SPMD main functions end
        cleanly once the host knows no further group will be created.
        """
        if not self.is_host():
            raise HMPIStateError("release_free may only be called by the host")
        world = self.comm_world
        for r in self._free_pool(include_departed=True):
            try:
                world._send_internal(("release",), r, _TAG_GROUP_CREATE)
            except RankFailedError:
                self.mark_dead(r)

    def get_comm(self, group: HMPIGroup):
        """HMPI_Get_comm: the MPI communicator behind a group handle."""
        return group.comm


def run_hmpi(
    app: Callable[..., Any],
    cluster: Cluster,
    placement: Sequence[int] | None = None,
    *,
    nprocs: int | None = None,
    args: tuple = (),
    kwargs: dict | None = None,
    mapper: "Mapper | str | None" = None,
    initial_speeds: Sequence[float] | None = None,
    timeout: float | None = 120.0,
    tracer: Any = None,
    ft: "FTConfig | dict | None" = None,
    obs: "Observability | None" = None,
    engine: str | None = None,
) -> MPIRunResult:
    """Run ``app(hmpi, *args, **kwargs)`` SPMD with the HMPI runtime.

    This brackets the application with ``HMPI_Init``/``HMPI_Finalize``: it
    builds the shared runtime state (network model seeded with nominal
    machine speeds unless ``initial_speeds`` is given) and hands every rank
    an :class:`HMPI` environment.  Options after ``placement`` are
    keyword-only and uniform across entry points (``run_mpi``,
    ``run_hmpi``, the session facade, the CLI); bad registry strings raise
    :class:`~repro.util.errors.OptionError` (engine backends) or the
    owning layer's established error type (mappers, algorithms).
    ``mapper`` may be a :class:`Mapper` instance or a registry string such
    as ``"default"`` or ``"greedy"``.  ``tracer`` and ``ft``
    (fault-tolerance knobs; an :class:`FTConfig` or a dict of its fields)
    are forwarded to the engine (see :class:`repro.mpi.tracing.Tracer`,
    :class:`repro.mpi.engine.FTConfig`), as is ``engine`` — the
    scheduling backend, ``"events"`` or ``"threads"``.  ``obs`` turns on
    the unified observability layer (:class:`repro.obs.Observability`):
    runtime spans, metrics, and prediction-accuracy tracking record into
    it, and its tracer (when it has one) collects the engine events
    unless an explicit ``tracer`` is also given.
    """
    if placement is None:
        placement = default_placement(cluster, nprocs)
    if obs is not None:
        if tracer is None:
            tracer = obs.tracer
        else:
            obs.tracer = tracer  # adopt, so exports see the engine events
    netmodel = NetworkModel(cluster, placement, initial_speeds)
    state = HMPIRuntimeState(netmodel, mapper, obs=obs)

    def wrapped(env: MPIEnv, *a: Any, **kw: Any) -> Any:
        return app(HMPI(env, state), *a, **kw)

    return run_mpi(
        wrapped, cluster, placement=placement,
        args=args, kwargs=kwargs, timeout=timeout, tracer=tracer, ft=ft,
        metrics=obs.metrics if obs is not None else None,
        engine=engine,
        telemetry=obs.telemetry if obs is not None else None,
    )
