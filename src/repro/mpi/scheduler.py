"""Pluggable rank schedulers for the virtual-time engine.

The engine (:mod:`repro.mpi.engine`) owns *what* happens — message
matching, virtual clocks, fault accounting.  A :class:`Scheduler` owns
*when* rank programs run: it decides which rank executes next, parks ranks
whose wait condition is unsatisfied, and wakes them when the engine makes
their condition true.  Two implementations share that contract:

``threads`` (:class:`ThreadScheduler`)
    The original backend: every rank is a freely preempted OS thread
    blocking on a per-rank condition variable.  Wall-clock cost grows with
    thread context switching, which caps simulated rank counts.

``events`` (:class:`EventScheduler`, the default)
    A discrete-event core: rank programs still run on (parked) threads so
    ordinary blocking Python code works unchanged, but exactly **one**
    task runs at a time and handoffs follow an event heap keyed on virtual
    time — the least-virtual-time ready rank always runs next.  Blocking,
    wake-ups, timeouts and faults become heap events; there is no lock
    contention and no reliance on OS preemption, so runs are deterministic
    and orders of magnitude faster at scale.  A handoff costs one plain
    lock release and one acquire: each parked rank waits on its own
    ``threading.Lock``, created held, which the rank passing the baton
    releases.

Backend selection is uniform across entry points: ``engine="threads" |
"events"`` on :class:`~repro.mpi.engine.Engine`, ``run_mpi``,
``run_hmpi``, the session facade and the CLI, resolved by
:func:`resolve_engine` (the default is ``events``).  Unknown names raise
:class:`~repro.util.errors.OptionError`.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from ..util.errors import DeadlockError, OptionError
from ..util.options import check_choice

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Engine, FTConfig, ProcessState

__all__ = [
    "ENGINE_BACKENDS",
    "DEFAULT_ENGINE",
    "Scheduler",
    "SchedulerProfile",
    "ThreadScheduler",
    "EventScheduler",
    "resolve_engine",
    "resolve_ft",
    "make_scheduler",
]

#: Registered engine backends, in preference order.
ENGINE_BACKENDS = ("events", "threads")

#: Backend used when no ``engine=`` option is given anywhere.
DEFAULT_ENGINE = "events"

#: Above this rank count the event backend shrinks task-thread stacks so
#: a 10k+-rank smoke run does not exhaust address space on small hosts.
_SMALL_STACK_THRESHOLD = 2048
_TASK_STACK_BYTES = 512 * 1024


def resolve_engine(spec: str | None = None, default: str | None = None) -> str:
    """Resolve an ``engine=`` option to a registered backend name.

    ``None`` falls back to ``default``, then to :data:`DEFAULT_ENGINE`.
    Unknown names raise :class:`~repro.util.errors.OptionError` — one
    resolver, one error type, mirroring ``mapper=``/``algorithm=``.
    """
    if spec is None:
        spec = default
    if spec is None:
        spec = DEFAULT_ENGINE
    if not isinstance(spec, str):
        raise OptionError(
            f"engine must be a backend name string "
            f"({', '.join(ENGINE_BACKENDS)}), got {spec!r}"
        )
    return check_choice("engine backend", spec, ENGINE_BACKENDS)


def resolve_ft(ft: "FTConfig | dict | None") -> "FTConfig | None":
    """Resolve an ``ft=`` option: FTConfig passes through, dicts construct.

    ``None`` means engine defaults.  Unknown field names in a dict raise
    :class:`~repro.util.errors.OptionError`; field *values* keep
    FTConfig's own validation (:class:`~repro.util.errors.MPIError`).
    """
    from .engine import FTConfig

    if ft is None or isinstance(ft, FTConfig):
        return ft
    if isinstance(ft, dict):
        try:
            return FTConfig(**ft)
        except TypeError as exc:
            raise OptionError(f"bad ft option: {exc}") from None
    raise OptionError(
        f"ft must be an FTConfig or a dict of its fields, "
        f"got {type(ft).__name__}"
    )


def make_scheduler(backend: str, engine: "Engine") -> "Scheduler":
    """Instantiate the scheduler implementing a resolved backend name."""
    if backend == "threads":
        return ThreadScheduler(engine)
    return EventScheduler(engine)


class SchedulerProfile:
    """Host-side self-profile of one scheduler run.

    These are **wall-clock** numbers about the simulator itself — how
    fast the scheduler hands the baton around, how deep its ready heap
    gets — deliberately distinct from the virtual-time metrics the
    simulation produces.  The benchmark suite's ``mpi.task_switches``
    and ``mpi.heap_high_water`` probes read them.

    Updates are plain attribute arithmetic on the scheduler's hot path
    (one int compare in ``_push``, one increment per dispatch), so
    profiling is always on and costs noise.
    """

    __slots__ = ("backend", "task_switches", "heap_high_water",
                 "wall_seconds")

    def __init__(self, backend: str):
        self.backend = backend
        self.task_switches = 0      # baton handoffs / blocking waits
        self.heap_high_water = 0    # peak ready-heap depth (events only)
        self.wall_seconds = 0.0     # real time inside run_all

    @property
    def switches_per_sec(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.task_switches / self.wall_seconds

    def as_dict(self) -> dict[str, Any]:
        return {
            "backend": self.backend,
            "task_switches": self.task_switches,
            "heap_high_water": self.heap_high_water,
            "wall_seconds": self.wall_seconds,
            "switches_per_sec": self.switches_per_sec,
        }

    def publish(self, metrics: Any) -> None:
        """Expose the profile as ``engine.sched.*`` gauges (labelled with
        the backend) on a :class:`~repro.obs.metrics.MetricsRegistry`."""
        for field in ("task_switches", "heap_high_water", "wall_seconds",
                      "switches_per_sec"):
            metrics.gauge(f"engine.sched.{field}",
                          backend=self.backend).set(
                float(getattr(self, field)))


class Scheduler:
    """Contract between the engine and a rank-scheduling backend.

    Unless noted otherwise, every method is called with ``engine.lock``
    held.  ``proc.waiting`` describes what a parked rank waits for (see
    :class:`~repro.mpi.engine.ProcessState`); satisfaction checks and
    stall resolution stay in the engine — the scheduler only decides when
    ranks run.
    """

    #: Backend name the scheduler implements.
    name: str = "?"
    #: Host-side self-profile, populated by :meth:`run_all` (see
    #: :class:`SchedulerProfile`); always present, always cheap.
    profile: "SchedulerProfile"
    #: Whether engine wait loops must run stall detection eagerly on every
    #: blocking step.  True for preemptive backends (any rank may block at
    #: any real moment, so each blocker re-checks global progress); False
    #: for the event backend, which detects stalls exactly when its ready
    #: heap runs dry.
    eager_stall: bool = True
    #: Whether rank interleaving is deterministic (virtual-time ordered)
    #: rather than at the mercy of OS scheduling.  Deterministic backends
    #: need no real-time "settling" sleeps in simulation-fidelity hacks.
    deterministic: bool = False

    def block(self, proc: "ProcessState") -> None:
        """Park the calling rank until :meth:`wake` (one wait step)."""
        raise NotImplementedError

    def wake(self, proc: "ProcessState", at: float | None = None) -> None:
        """Mark ``proc`` runnable again; ``at`` is the virtual time of the
        event that woke it (e.g. a message arrival), used as the ready
        key so wake-ups dispatch in virtual-time order."""
        raise NotImplementedError

    def wake_all(self) -> None:
        """Wake every parked rank to re-evaluate its wait condition."""
        raise NotImplementedError

    def yield_now(self, proc: "ProcessState") -> None:
        """Voluntarily let other ready ranks run (called *without* the
        engine lock).  Gives polling loops (``iprobe``, ``Request.test``)
        forward progress under cooperative backends; a no-op wherever the
        OS already preempts."""
        raise NotImplementedError

    def ready_before(self, proc: "ProcessState", key: float) -> bool:
        """Whether some other rank is ready to run before virtual time
        ``key``.  Event-ordered backends answer from the ready heap; the
        preemptive backend answers False (everyone runnable is already
        running in real time, so there is nobody to wait for)."""
        return False

    def wait_upto(self, proc: "ProcessState", key: float) -> None:
        """Let every rank ready before virtual time ``key`` run, then
        return to the caller (which re-examines the world).  Supports
        virtual-time-faithful completion of wildcard receives: the
        receiver must not commit to a match while a virtually earlier
        rank could still produce a better one.  No-op for preemptive
        backends."""
        return None

    def on_finish(self, proc: "ProcessState") -> None:
        """A rank's program ended (``proc.finished`` already set)."""
        raise NotImplementedError

    def run_all(self, runner: Callable[[int], None],
                timeout: float | None) -> None:
        """Execute ``runner(rank)`` for every rank to completion.

        Called without the engine lock.  ``timeout`` is the real-time
        safety net; expiry raises :class:`DeadlockError` after declaring
        the run deadlocked.
        """
        raise NotImplementedError


class ThreadScheduler(Scheduler):
    """One preemptive OS thread per rank (the original backend).

    Blocking waits sit on per-rank condition variables sharing the engine
    lock; wake-ups are broadcasts.  Kept selectable both as the semantic
    reference for differential testing and for programs that genuinely
    want preemptive interleaving.
    """

    name = "threads"
    eager_stall = True
    deterministic = False

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.profile = SchedulerProfile(self.name)

    def block(self, proc: "ProcessState") -> None:
        self.profile.task_switches += 1
        proc.cond.wait()

    def wake(self, proc: "ProcessState", at: float | None = None) -> None:
        proc.cond.notify_all()

    def wake_all(self) -> None:
        for p in self.engine.procs:
            p.cond.notify_all()

    def yield_now(self, proc: "ProcessState") -> None:
        return None

    def on_finish(self, proc: "ProcessState") -> None:
        # A rank ending (cleanly or not) can stall peers waiting on it,
        # and can satisfy external-wait predicates; both need the blocked
        # threads to re-examine the world.
        self.engine._check_stall()
        for p in self.engine.procs:
            p.cond.notify_all()

    def run_all(self, runner: Callable[[int], None],
                timeout: float | None) -> None:
        engine = self.engine
        t0 = time.perf_counter()
        try:
            for proc in engine.procs:
                proc.thread = threading.Thread(
                    target=runner, args=(proc.rank,), daemon=True,
                    name=f"mpi-rank-{proc.rank}",
                )
            for proc in engine.procs:
                proc.thread.start()
            for proc in engine.procs:
                proc.thread.join(timeout)
                if proc.thread.is_alive():
                    with engine.lock:
                        engine._declare_deadlock()
                    raise DeadlockError(
                        f"rank {proc.rank} did not finish within {timeout}s "
                        f"of real time"
                    )
        finally:
            self.profile.wall_seconds = time.perf_counter() - t0


class EventScheduler(Scheduler):
    """Discrete-event backend: one rank runs at a time, least virtual time
    first.

    Rank programs execute on parked threads holding a *baton*: exactly one
    thread is ever runnable.  A ready heap of ``(virtual_time, seq, rank)``
    entries orders dispatch; a blocking rank pushes nothing for itself —
    it is re-queued by :meth:`wake` when the engine satisfies (or fails)
    its wait.  When the heap runs dry while unfinished ranks remain, no
    future event can occur (sends are eager), so the engine's stall
    resolver runs right then — timeouts, failure fallout and deadlocks
    fire at the same points as under the thread backend, without any
    per-block global scans.

    Handoff protocol: every rank owns a resume lock, created held.  The
    running thread picks the next ready rank, releases that rank's resume
    lock, fully releases the engine lock and acquires its own resume lock.
    A lock (unlike a condition variable) remembers a release made before
    anyone waits on it: if the baton comes back to a rank before its
    thread reaches ``acquire()``, the acquire simply succeeds at once, so
    a wake posted before the park is never lost.  Each rank's lock is
    released at most once per park — a second release while it is still
    unlocked would raise, which turns a double dispatch into an error
    instead of a silent extra wake.  ``seq`` breaks virtual-time ties
    FIFO, keeping runs deterministic.
    """

    name = "events"
    eager_stall = False
    deterministic = True

    _PARKED = 0
    _RUNNING = 1
    _FINISHED = 2

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.profile = SchedulerProfile(self.name)
        n = engine.nprocs
        self._state = [self._PARKED] * n
        self._resume = [threading.Lock() for _ in range(n)]
        for lock in self._resume:
            lock.acquire()   # created held: a rank parks until dispatched
        self._heap: list[tuple[float, int, int]] = []
        self._seq = 0
        self._nfinished = 0
        self._running = False
        self._done = threading.Event()
        self._internal: BaseException | None = None

    # -- ready-heap plumbing (engine lock held) ------------------------
    def _push(self, key: float, rank: int) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (key, self._seq, rank))
        if len(self._heap) > self.profile.heap_high_water:
            self.profile.heap_high_water = len(self._heap)

    def _dispatch(self, rank: int) -> None:
        self.profile.task_switches += 1
        self._state[rank] = self._RUNNING
        self._resume[rank].release()

    def _hand_off(self, rank: int, nxt: int) -> None:
        """Dispatch ``nxt`` and park ``rank`` until the baton returns.

        The (possibly re-entered) engine lock is fully released across
        the park, exactly like ``Condition.wait`` does.
        """
        self._dispatch(nxt)
        lock = self.engine.lock
        saved = lock._release_save()
        try:
            self._resume[rank].acquire()
        finally:
            lock._acquire_restore(saved)

    def _next_ready(self) -> int | None:
        """Pop the next runnable rank, resolving stalls at idle.

        Returns None only when the run is over (all ranks finished, or an
        internal scheduling error was recorded); both set ``_done``.
        """
        engine = self.engine
        while True:
            while self._heap:
                _, _, rank = heapq.heappop(self._heap)
                if (self._state[rank] == self._PARKED
                        and not engine.procs[rank].finished):
                    return rank
                # Stale entry: the rank was dispatched via a newer wake,
                # re-parked and re-queued, or finished.  Spurious wake-ups
                # are harmless — wait loops re-check their condition.
            if self._nfinished >= engine.nprocs:
                self._done.set()
                return None
            if not self._resolve_idle():
                self._internal = RuntimeError(
                    "event scheduler: ready heap empty with unfinished "
                    "ranks and stall resolution made no progress"
                )
                self._done.set()
                return None

    def _resolve_idle(self) -> bool:
        """Heap ran dry with unfinished ranks: find or force progress.

        First re-queue any parked rank whose condition already holds (or
        that carries a planted wake exception) — out-of-band state changes
        without a ``poke`` land here.  Failing that, every unfinished rank
        is blocked on an unsatisfiable wait: run the engine's stall
        resolver, which plants typed errors and wakes the victims (or
        declares a terminal deadlock, waking everyone).  Returns whether
        the heap is non-empty afterwards.
        """
        engine = self.engine
        for p in engine.procs:
            if (p.finished or self._state[p.rank] != self._PARKED
                    or p.waiting is None):
                continue
            if p.wake_exc is not None or engine._condition_satisfied(p):
                self.wake(p)
        if self._heap:
            return True
        if engine.deadlocked:
            self.wake_all()
            return bool(self._heap)
        engine._resolve_stall()
        return bool(self._heap)

    # -- Scheduler interface -------------------------------------------
    def block(self, proc: "ProcessState") -> None:
        if not self._running:
            # Direct engine use outside run(): behave like the thread
            # backend so ad-hoc harnesses keep working.
            proc.cond.wait()
            return
        rank = proc.rank
        self._state[rank] = self._PARKED
        nxt = self._next_ready()
        if nxt is None:
            raise self._internal or RuntimeError(
                "event scheduler: no runnable task while a rank blocks")
        if nxt == rank:
            # Stall resolution picked the parking rank itself (planted a
            # wake exception for it): keep the baton and re-check.
            self._state[rank] = self._RUNNING
            return
        self._hand_off(rank, nxt)

    def wake(self, proc: "ProcessState", at: float | None = None) -> None:
        if not self._running:
            proc.cond.notify_all()
            return
        rank = proc.rank
        if proc.finished or self._state[rank] != self._PARKED:
            return
        key = proc.clock if at is None or at < proc.clock else at
        self._push(key, rank)

    def wake_all(self) -> None:
        if not self._running:
            for p in self.engine.procs:
                p.cond.notify_all()
            return
        for p in self.engine.procs:
            if not p.finished and self._state[p.rank] == self._PARKED:
                self._push(p.clock, p.rank)

    def yield_now(self, proc: "ProcessState") -> None:
        if not self._running or proc.finished:
            return
        with self.engine.lock:
            rank = proc.rank
            if self._state[rank] != self._RUNNING:
                return
            self._state[rank] = self._PARKED
            self._push(proc.clock, rank)
            nxt = self._next_ready()
            if nxt is None or nxt == rank:
                self._state[rank] = self._RUNNING
                return
            self._hand_off(rank, nxt)

    def ready_before(self, proc: "ProcessState", key: float) -> bool:
        if not self._running:
            return False
        heap = self._heap
        engine = self.engine
        while heap:
            k, _, rank = heap[0]
            if (self._state[rank] == self._PARKED
                    and not engine.procs[rank].finished):
                return k < key
            heapq.heappop(heap)  # prune stale entries while we are here
        return False

    def wait_upto(self, proc: "ProcessState", key: float) -> None:
        if not self._running:
            return
        rank = proc.rank
        if key < proc.clock:
            key = proc.clock
        self._state[rank] = self._PARKED
        self._push(key, rank)
        nxt = self._next_ready()
        if nxt is None:
            raise self._internal or RuntimeError(
                "event scheduler: no runnable task during a timed yield")
        if nxt == rank:
            self._state[rank] = self._RUNNING
            return
        self._hand_off(rank, nxt)

    def on_finish(self, proc: "ProcessState") -> None:
        if not self._running:
            self.engine._check_stall()
            for p in self.engine.procs:
                p.cond.notify_all()
            return
        engine = self.engine
        self._state[proc.rank] = self._FINISHED
        self._nfinished += 1
        # A rank ending can satisfy external-wait predicates.  Only
        # external waits qualify: recv/probe waiters are always woken by
        # the delivery (or the stall resolver) that satisfies them, so a
        # full all-ranks scan here would be O(n²) across a run's
        # teardown for nothing.
        for r in engine.ext_waiters:
            p = engine.procs[r]
            if p.finished or self._state[r] != self._PARKED:
                continue
            if p.wake_exc is not None or engine._condition_satisfied(p):
                self.wake(p)
        nxt = self._next_ready()
        if nxt is not None:
            self._dispatch(nxt)

    def _task_body(self, rank: int, runner: Callable[[int], None]) -> None:
        self._resume[rank].acquire()
        runner(rank)

    def run_all(self, runner: Callable[[int], None],
                timeout: float | None) -> None:
        engine = self.engine
        n = engine.nprocs
        self._running = True
        t0 = time.perf_counter()
        old_stack = None
        if n > _SMALL_STACK_THRESHOLD:
            try:
                old_stack = threading.stack_size(_TASK_STACK_BYTES)
            except (ValueError, RuntimeError):  # pragma: no cover
                old_stack = None
        try:
            for proc in engine.procs:
                proc.thread = threading.Thread(
                    target=self._task_body, args=(proc.rank, runner),
                    daemon=True, name=f"mpi-rank-{proc.rank}",
                )
            for proc in engine.procs:
                proc.thread.start()
        finally:
            if old_stack is not None:
                threading.stack_size(old_stack)
        with engine.lock:
            # Seed every rank ready at virtual time zero, in rank order,
            # and hand the baton to the first.
            for rank in range(n):
                self._push(0.0, rank)
            nxt = self._next_ready()
            if nxt is not None:
                self._dispatch(nxt)
        try:
            finished = self._done.wait(timeout)
            if self._internal is not None:
                raise self._internal
            if not finished:
                with engine.lock:
                    engine._declare_deadlock()
                stuck = next(
                    (p.rank for p in engine.procs if not p.finished), 0)
                raise DeadlockError(
                    f"rank {stuck} did not finish within {timeout}s "
                    f"of real time"
                )
        finally:
            self.profile.wall_seconds = time.perf_counter() - t0
