"""Pluggable rank schedulers for the virtual-time engine.

The engine (:mod:`repro.mpi.engine`) owns *what* happens — message
matching, virtual clocks, fault accounting, stall detection.  A
:class:`Scheduler` owns *when* rank programs run: it decides which rank
executes next, parks ranks whose wait condition is unsatisfied, and wakes
them when the engine makes their condition true.  The engine never
branches on which scheduler runs it.  Two implementations share that
contract:

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
    releases.  Rank tasks run on parked daemon workers from one
    module-level pool that outlive a run: a worker runs one rank task,
    then parks on its own lock until a later run needs it, so starting a
    rank costs one lock release instead of a thread create/start/exit.
    At most ``_SMALL_STACK_THRESHOLD`` (2048) workers park.  A worker past
    that cap, one created with the reduced stack of a larger run, and one
    whose task left anything in its ``contextvars`` context exit instead,
    so every rank starts in an empty context as a fresh thread would.  A
    forked child starts with an empty pool.

``threads`` (:class:`ThreadScheduler`)
    The original backend, kept as the reference the event core is
    differentially tested against: every rank is a preempted OS thread
    blocking on its own condition variable.  Only this class knows that
    ranks are preempted.

Backend selection is uniform across entry points: ``engine="threads" |
"events"`` on :class:`~repro.mpi.engine.Engine`, ``run_mpi``,
``run_hmpi``, the session facade and the CLI, resolved by
:func:`resolve_engine` (the default is ``events``).  Unknown names raise
:class:`~repro.util.errors.OptionError`.
"""

from __future__ import annotations

import contextvars
import heapq
import itertools
import operator
import os
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
#: It is also the most workers the rank pool keeps parked.
_SMALL_STACK_THRESHOLD = 2048
_TASK_STACK_BYTES = 512 * 1024


class _Worker:
    """One daemon thread of the rank pool: runs a rank task, then parks.

    ``wake`` is held while the worker is parked; a run hands it a job by
    setting ``job`` and releasing ``wake``.  A release that lands before
    the worker reaches ``acquire()`` is remembered, so no job is lost.
    ``seq`` orders workers by creation.
    """

    __slots__ = ("wake", "job", "small", "seq")

    def __init__(self, small: bool, seq: int):
        self.wake = threading.Lock()
        self.job: tuple | None = None
        self.small = small
        self.seq = seq

    def main(self) -> None:
        while True:
            self.wake.acquire()
            fn, a, b = self.job
            self.job = None
            # A positional call: ``fn(*args)`` adds an eval frame whose
            # stack page every parked worker would keep touched.
            fn(a, b)
            # Drop the job so an idle worker keeps no engine alive.
            fn = a = b = None
            if not _RANK_POOL.park(self):
                return


class _RankPool:
    """Parked rank workers shared by every event-backend run."""

    def __init__(self):
        self._reset()

    def _reset(self) -> None:
        # Also the fork hook: a forked child has none of these threads.
        self._lock = threading.Lock()
        self._idle: list[_Worker] = []

    @property
    def parked(self) -> int:
        """Number of idle workers waiting for a job."""
        return len(self._idle)

    def take(self, n: int) -> list[_Worker]:
        """Remove and return up to ``n`` idle workers, oldest first.

        Rank ``r`` of a run then lands on the same worker run after run,
        so the stack pages and malloc caches a parked worker keeps are
        those of one rank's program, not the worst of every rank's.
        """
        with self._lock:
            idle = self._idle
            idle.sort(key=_seq_of)
            taken = idle[:n]
            del idle[:n]
        return taken

    def park(self, worker: _Worker) -> bool:
        """Return ``worker`` to the pool; False means its thread must exit."""
        if worker.small or len(contextvars.copy_context()):
            return False
        with self._lock:
            if len(self._idle) >= _SMALL_STACK_THRESHOLD:
                return False
            self._idle.append(worker)
        return True


_seq_of = operator.attrgetter("seq")
_worker_seq = itertools.count()
_RANK_POOL = _RankPool()
os.register_at_fork(after_in_child=_RANK_POOL._reset)


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
    gets, how many OS threads it had to start — deliberately distinct
    from the virtual-time metrics the simulation produces.  The benchmark suite's ``mpi.task_switches``
    and ``mpi.heap_high_water`` probes read them.

    Updates are plain attribute arithmetic on the scheduler's hot path
    (one int compare in ``_push``, one increment per dispatch), so
    profiling is always on and costs noise.
    """

    __slots__ = ("backend", "task_switches", "heap_high_water",
                 "wall_seconds", "threads_started")

    def __init__(self, backend: str):
        self.backend = backend
        self.task_switches = 0      # baton handoffs / blocking waits
        self.heap_high_water = 0    # peak ready-heap depth (events only)
        self.wall_seconds = 0.0     # real time inside run_all
        self.threads_started = 0    # OS threads created by run_all

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
            "threads_started": self.threads_started,
        }

    def publish(self, metrics: Any) -> None:
        """Expose the profile as ``engine.sched.*`` gauges (labelled with
        the backend) on a :class:`~repro.obs.metrics.MetricsRegistry`."""
        for field in ("task_switches", "heap_high_water", "wall_seconds",
                      "switches_per_sec", "threads_started"):
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
    #: Whether rank interleaving is deterministic (virtual-time ordered)
    #: rather than at the mercy of OS scheduling.  Deterministic backends
    #: need no real-time "settling" sleeps in simulation-fidelity hacks.
    deterministic: bool = False

    def block(self, proc: "ProcessState") -> None:
        """Park the calling rank until :meth:`wake` (one wait step).

        Detecting a stall is the scheduler's job.  ``block`` may return
        without a wake; the engine's wait loop then re-checks."""
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
        ``key``.  Called only when :attr:`deterministic` is True."""
        raise NotImplementedError

    def wait_upto(self, proc: "ProcessState", key: float) -> None:
        """Let every rank ready before virtual time ``key`` run, then
        return to the caller (which re-examines the world).  Supports
        virtual-time-faithful completion of wildcard receives: the
        receiver must not commit to a match while a virtually earlier
        rank could still produce a better one.  Called only when
        :attr:`deterministic` is True."""
        raise NotImplementedError

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

    Each rank blocks on its own condition variable, built on the engine
    lock; wake-ups are broadcasts.  Any rank may block at any real moment,
    so every park first runs the engine's stall check.  Kept selectable as
    the semantic reference for differential testing and for programs that
    genuinely want preemptive interleaving.
    """

    name = "threads"
    deterministic = False

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.profile = SchedulerProfile(self.name)
        self._conds = [threading.Condition(engine.lock)
                       for _ in range(engine.nprocs)]

    def block(self, proc: "ProcessState") -> None:
        engine = self.engine
        engine._check_stall()
        if proc.wake_exc is not None or engine.deadlocked:
            return   # the engine's wait loop raises it
        self.profile.task_switches += 1
        self._conds[proc.rank].wait()

    def wake(self, proc: "ProcessState", at: float | None = None) -> None:
        self._conds[proc.rank].notify_all()

    def wake_all(self) -> None:
        for cond in self._conds:
            cond.notify_all()

    def yield_now(self, proc: "ProcessState") -> None:
        return None

    def on_finish(self, proc: "ProcessState") -> None:
        # A rank ending (cleanly or not) can stall peers waiting on it,
        # and can satisfy external-wait predicates; both need the blocked
        # threads to re-examine the world.
        self.engine._check_stall()
        self.wake_all()

    def run_all(self, runner: Callable[[int], None],
                timeout: float | None) -> None:
        engine = self.engine
        t0 = time.perf_counter()
        threads = [
            threading.Thread(target=runner, args=(rank,), daemon=True,
                             name=f"mpi-rank-{rank}")
            for rank in range(engine.nprocs)
        ]
        self.profile.threads_started = len(threads)
        try:
            for thread in threads:
                thread.start()
            for rank, thread in enumerate(threads):
                thread.join(timeout)
                if thread.is_alive():
                    with engine.lock:
                        engine._declare_deadlock()
                    raise DeadlockError(
                        f"rank {rank} did not finish within {timeout}s "
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
        rank = proc.rank
        if proc.finished or self._state[rank] != self._PARKED:
            return
        key = proc.clock if at is None or at < proc.clock else at
        self._push(key, rank)

    def wake_all(self) -> None:
        for p in self.engine.procs:
            if not p.finished and self._state[p.rank] == self._PARKED:
                self._push(p.clock, p.rank)

    def yield_now(self, proc: "ProcessState") -> None:
        if proc.finished:
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
        t0 = time.perf_counter()
        task = self._task_body
        workers = _RANK_POOL.take(n)
        for rank, worker in enumerate(workers):
            worker.job = (task, rank, runner)
            worker.wake.release()
        self.profile.threads_started = n - len(workers)
        if len(workers) < n:
            small = n > _SMALL_STACK_THRESHOLD
            old_stack = None
            if small:
                try:
                    old_stack = threading.stack_size(_TASK_STACK_BYTES)
                except (ValueError, RuntimeError):  # pragma: no cover
                    old_stack = None
            try:
                for rank in range(len(workers), n):
                    worker = _Worker(small, next(_worker_seq))
                    worker.job = (task, rank, runner)
                    threading.Thread(target=worker.main, daemon=True,
                                     name="mpi-rank-worker").start()
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
