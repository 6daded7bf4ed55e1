"""Virtual-time SPMD execution engine.

Each MPI rank runs as a real Python thread carrying a **logical clock** in
seconds of virtual time.  The engine charges:

- ``compute(volume)`` — the machine's load-integrated time for ``volume``
  benchmark units (speed shared between co-located ranks);
- a send — CPU overhead of one protocol latency to the sender; the message
  is stamped with ``arrival = departure + latency + nbytes/bandwidth`` on
  the fastest (or pinned) protocol of the machine-pair link;
- a receive — the receiver's clock becomes ``max(clock, arrival)``.

Messages between the same ordered rank pair never overtake each other in
virtual time (per-pair arrival monotonisation), matching MPI's
non-overtaking guarantee.  Links are contention-free across distinct pairs,
matching the paper's switched Ethernet "enabling parallel communications".

Blocking receives block the rank's *task*, so algorithm-level blocking
structure is mirrored exactly and no global clock synchronisation is
needed.  *When* rank tasks run is delegated to a pluggable
:class:`~repro.mpi.scheduler.Scheduler` (``engine="events"`` runs one
cooperatively scheduled task at a time off a virtual-time event heap —
the default; ``engine="threads"`` is the original preemptive
one-OS-thread-per-rank backend).  A deterministic stall detector fires
when every live rank is blocked: with eager sends nothing can ever
unblock them.  See ``docs/ENGINE.md`` for the event model.

**Failure semantics.**  Machine failures (fault injection) surface as
:class:`MachineFailure` in the affected ranks.  Survivors do not share that
fate: a send whose message would arrive after the destination's death
raises a local, typed :class:`RankFailedError` at the sender, and a stalled
receive whose source can never send again resolves to
:class:`RankFailedError` at the receiver.  Receives may carry a
*virtual-time* deadline (:class:`OperationTimeoutError` past it), and
transient link faults (``cluster.transient_faults``) are masked by seeded
retransmission with exponential backoff — :class:`LinkFaultError` once the
budget is exhausted.  Only a stall with no failure anywhere is a true
:class:`DeadlockError`, and that one stays terminal.  Knobs live in
:class:`FTConfig`.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from ..cluster.network import Cluster
from ..util.errors import (
    DeadlockError,
    LinkFaultError,
    MachineFailure,
    MPIError,
    OperationTimeoutError,
    RankFailedError,
)
from .datatypes import decode_payload, encode_payload
from .scheduler import make_scheduler, resolve_engine, resolve_ft
from .status import ANY_SOURCE, ANY_TAG, Status

__all__ = ["Message", "PostedRecv", "ProcessState", "Engine", "FTConfig",
           "WORLD_CONTEXT", "ACK_CONTEXT"]

#: Context id of the world communicator.
WORLD_CONTEXT = 0
#: Internal context carrying synchronous-send acknowledgements; never used
#: by communicators, so ack traffic cannot match user receives.
ACK_CONTEXT = -1


@dataclass(frozen=True)
class FTConfig:
    """Fault-tolerance behaviour of the engine.

    ``max_retries``/``retry_timeout``/``backoff`` govern retransmission of
    messages dropped by transient link faults: attempt ``k`` (1-based)
    charges ``retry_timeout * backoff**(k-1)`` virtual seconds of timer
    wait to the sender before the copy goes out again.
    ``default_recv_timeout``, when set, bounds every blocking receive that
    does not pass its own ``timeout`` (virtual seconds).
    ``fail_fast_sends`` makes a send whose arrival would postdate the
    destination machine's death raise :class:`RankFailedError` at the
    sender instead of silently vanishing.
    """

    max_retries: int = 8
    retry_timeout: float = 1e-3
    backoff: float = 2.0
    default_recv_timeout: float | None = None
    fail_fast_sends: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise MPIError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_timeout < 0:
            raise MPIError(f"retry_timeout must be >= 0, got {self.retry_timeout}")
        if self.backoff < 1.0:
            raise MPIError(f"backoff must be >= 1, got {self.backoff}")


#: Exceptions that are expected fallout of injected faults; ``Engine.run``
#: records them per rank but does not re-raise them as program bugs.
_FAULT_FALLOUT = (MachineFailure, RankFailedError, LinkFaultError,
                  OperationTimeoutError)


class Message:
    """An in-flight or queued point-to-point message (world-rank addressed)."""

    __slots__ = ("context", "src", "dst", "tag", "payload", "nbytes",
                 "arrival", "ack_seq")

    def __init__(self, context: int, src: int, dst: int, tag: int,
                 payload: Any, nbytes: int, arrival: float,
                 ack_seq: int | None = None):
        self.context = context
        self.src = src
        self.dst = dst
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        self.arrival = arrival
        self.ack_seq = ack_seq

    def matches(self, context: int, src: int, tag: int) -> bool:
        return (
            self.context == context
            and (src == ANY_SOURCE or self.src == src)
            and (tag == ANY_TAG or self.tag == tag)
        )

    def __repr__(self) -> str:
        return (f"Message(ctx={self.context}, {self.src}->{self.dst}, "
                f"tag={self.tag}, {self.nbytes}B, arrival={self.arrival:.6f})")


class PostedRecv:
    """A posted receive awaiting (or holding) its matched message."""

    __slots__ = ("context", "src", "tag", "message", "done")

    def __init__(self, context: int, src: int, tag: int):
        self.context = context
        self.src = src
        self.tag = tag
        self.message: Message | None = None
        self.done = False

    def accepts(self, msg: Message) -> bool:
        return msg.matches(self.context, self.src, self.tag)


class ProcessState:
    """Bookkeeping for one rank: clock, queues, wait state, outcome."""

    __slots__ = (
        "rank", "machine_index", "clock", "unexpected", "posted",
        "last_arrival", "send_seq", "finished", "failed", "result",
        "exception", "waiting", "wake_exc",
    )

    def __init__(self, rank: int, machine_index: int):
        self.rank = rank
        self.machine_index = machine_index
        self.clock = 0.0
        self.unexpected: deque[Message] = deque()
        self.posted: deque[PostedRecv] = deque()
        self.last_arrival: dict[int, float] = {}
        self.send_seq: dict[int, int] = {}
        self.finished = False
        self.failed = False
        self.result: Any = None
        self.exception: BaseException | None = None
        # ("recv", PostedRecv, deadline), ("probe", (context, src, tag),
        # deadline) or ("ext", predicate, None) while the rank's thread is
        # inside a blocking wait; None otherwise.  ``deadline`` is an
        # absolute virtual time or None.
        self.waiting: tuple | None = None
        # Exception planted by the stall resolver for this rank to raise
        # from inside its blocking wait (cleared by the waiter).
        self.wake_exc: BaseException | None = None


class Engine:
    """Shared state of one SPMD run: processes, routing, contexts, clocks.

    Parameters
    ----------
    cluster:
        The HNOC the ranks execute on.
    placement:
        ``placement[world_rank]`` is the machine index the rank runs on.
        Several ranks may share a machine; they then share its speed.
    engine:
        scheduling backend name (``"events"`` or ``"threads"``); None
        resolves through :func:`repro.mpi.scheduler.resolve_engine` to
        the default.
    """

    def __init__(self, cluster: Cluster, placement: Sequence[int],
                 tracer: "object | None" = None,
                 ft: "FTConfig | dict | None" = None,
                 metrics: "object | None" = None,
                 engine: str | None = None,
                 telemetry: "object | None" = None):
        if not placement:
            raise MPIError("placement must map at least one rank")
        for m in placement:
            if not 0 <= m < cluster.size:
                raise MPIError(f"placement references unknown machine index {m}")
        self.cluster = cluster
        self.tracer = tracer
        # Optional obs.MetricsRegistry; collectives count fired algorithms
        # here when present.
        self.metrics = metrics
        # Optional obs.telemetry.EventBus; run() streams lifecycle events
        # (engine.run.start/finish with the scheduler self-profile) into
        # it when present.
        self.telemetry = telemetry
        ft = resolve_ft(ft)
        self.ft = ft if ft is not None else FTConfig()
        self.placement = list(placement)
        self.nprocs = len(placement)
        self.lock = threading.RLock()
        self.procs = [ProcessState(r, placement[r]) for r in range(self.nprocs)]
        self.machine_counts = [0] * cluster.size
        for m in placement:
            self.machine_counts[m] += 1
        self._started = False
        self.deadlocked = False
        self.failures: list[MachineFailure] = []
        #: World ranks currently blocked in :meth:`wait_until`.  External
        #: predicates are the one wait class that out-of-band state (a
        #: rank finishing, runtime bookkeeping) can satisfy without a
        #: message delivery, so schedulers re-check exactly these — and
        #: only these — at each rank finish.
        self.ext_waiters: set[int] = set()
        self._context_registry: dict[tuple, int] = {}
        self._next_context = WORLD_CONTEXT + 1
        self._sync_seq = 0
        self.backend = resolve_engine(engine)
        self.scheduler = make_scheduler(self.backend, self)

    @property
    def deterministic(self) -> bool:
        """Whether rank interleaving is virtual-time ordered (no OS races)."""
        return self.scheduler.deterministic

    # ------------------------------------------------------------------
    # context allocation (deterministic across ranks)
    # ------------------------------------------------------------------
    def allocate_context(self, key: tuple) -> int:
        """Context id for a communicator-creation event.

        All ranks participating in the same logical creation present the
        same ``key`` (derived from parent context, a per-comm creation
        counter, and color/group); the first caller allocates a fresh id
        and the rest look it up, so every rank agrees without extra
        messages.
        """
        with self.lock:
            ctx = self._context_registry.get(key)
            if ctx is None:
                ctx = self._next_context
                self._next_context += 1
                self._context_registry[key] = ctx
            return ctx

    # ------------------------------------------------------------------
    # virtual-time primitives
    # ------------------------------------------------------------------
    def compute(self, world_rank: int, volume: float,
                concurrency: int | None = None) -> float:
        """Advance the rank's clock by ``volume`` benchmark units of work.

        Returns the new clock.  Speed is the machine's base speed times its
        current load share, divided by ``concurrency`` — the number of
        ranks actively computing on the machine.  The default assumes every
        placed rank is active (true for SPMD phases like Recon); callers
        that know better (a group whose non-members are idle, waiting for
        the next group creation) pass the co-located member count, which is
        what HMPI's estimator assumes too.
        """
        proc = self.procs[world_rank]
        machine = self.cluster.machine(proc.machine_index)
        nshare = self.machine_counts[proc.machine_index] if concurrency is None else concurrency
        if nshare < 1:
            raise MPIError(f"concurrency must be >= 1, got {nshare}")
        start = proc.clock
        proc.clock = machine.compute_finish_time(start, volume, nshare)
        if self.tracer is not None:
            from .tracing import TraceEvent

            self.tracer.record(TraceEvent(
                rank=world_rank, kind="compute", t0=start, t1=proc.clock,
                volume=volume,
            ))
        return proc.clock

    def vtime(self, world_rank: int) -> float:
        """Current virtual time of the rank (MPI_Wtime analogue)."""
        return self.procs[world_rank].clock

    def advance_clock(self, world_rank: int, seconds: float) -> float:
        """Advance the rank's clock by raw seconds (fixed-cost activities)."""
        if seconds < 0:
            raise MPIError(f"cannot advance clock by {seconds}")
        proc = self.procs[world_rank]
        proc.clock += seconds
        return proc.clock

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def post_send(self, src: int, dst: int, context: int, tag: int,
                  obj: Any, nbytes: int | None = None,
                  sync: bool = False) -> None:
        """Eager send: snapshot the payload, stamp arrival, deliver.

        With ``sync=True`` (MPI_Ssend semantics) the call additionally
        blocks until the receiver has matched and charged the message: the
        receiver returns a zero-byte acknowledgement whose arrival
        lower-bounds the sender's clock, so the rendezvous shows up in
        virtual time.

        Failure semantics: transient link faults (if the cluster carries a
        schedule) are masked by retransmission with backoff, charging the
        timer waits to the sender; exhausting the budget raises
        :class:`LinkFaultError`.  If the message would arrive after the
        destination machine's death, the sender gets a local
        :class:`RankFailedError` (``ft.fail_fast_sends``).
        """
        if not 0 <= dst < self.nprocs:
            raise MPIError(f"destination rank {dst} out of range")
        sproc = self.procs[src]
        cluster = self.cluster
        smach = cluster.machines[sproc.machine_index]
        mortal = smach.fail_at is not None
        if mortal:
            smach.check_alive(sproc.clock)
        payload, size = encode_payload(obj, nbytes)
        dmach_idx = self.placement[dst]
        dmach = cluster.machines[dmach_idx]
        link = cluster.link(sproc.machine_index, dmach_idx)
        proto = link.protocol_for(size)
        if cluster.transient_faults is None:
            extra_delay = 0.0
        else:
            extra_delay = self._transient_delay(sproc, smach, dmach, src, dst)
            if mortal:  # retransmission timers take time too
                smach.check_alive(sproc.clock)
        # Messages between one ordered rank pair serialise on their link:
        # a transfer starts when both the sender has issued it and the
        # previous transfer to the same destination has fully arrived.
        # This also gives MPI's non-overtaking guarantee for free, and it
        # is exactly the estimator's per-pair link-busy rule.
        depart = sproc.clock
        start = max(depart, sproc.last_arrival.get(dst, 0.0))
        arrival = start + proto.transfer_time(size) + extra_delay
        if dmach.fail_at is not None and self.ft.fail_fast_sends \
                and not dmach.alive_at(arrival):
            raise RankFailedError(
                [dst], machine=dmach.name, vtime=dmach.fail_at,
                op=f"send from rank {src} to rank {dst}",
            )
        sproc.last_arrival[dst] = arrival
        if cluster.single_port:
            # The sender's interface is occupied until the transfer ends.
            sproc.clock = arrival
        else:
            # CPU-side cost of the send call only.
            sproc.clock = depart + proto.latency
        if self.tracer is not None:
            from .tracing import TraceEvent

            self.tracer.record(TraceEvent(
                rank=src, kind="send", t0=depart, t1=sproc.clock,
                peer=dst, nbytes=size, tag=tag,
            ))
        ack_seq = None
        ack_pr = None
        if sync:
            with self.lock:
                ack_seq = self._sync_seq
                self._sync_seq += 1
            # Post the ack receive before delivering the payload so the
            # acknowledgement can never be lost to a race.
            ack_pr = self.post_recv(src, ACK_CONTEXT, dst, ack_seq)
        msg = Message(context, src, dst, tag, payload, size, arrival,
                      ack_seq=ack_seq)
        with self.lock:
            self._deliver(msg)
        if ack_pr is not None:
            # Rendezvous: the sender's clock advances to the ack's arrival.
            self.wait_message(src, ack_pr)

    def _transient_delay(self, sproc: ProcessState, smach, dmach,
                         src: int, dst: int) -> float:
        """Resolve transient link faults for one logical message.

        Returns the extra arrival delay (jitter faults); charges
        retransmission timer waits for dropped copies to the sender's
        clock; raises :class:`LinkFaultError` past ``ft.max_retries``.
        Deterministic regardless of thread interleaving: the fault schedule
        is keyed on the per-pair message sequence number and the attempt
        counter, both interleaving-invariant.
        """
        tf = self.cluster.transient_faults
        if tf is None or smach is dmach:
            return 0.0
        seq = sproc.send_seq.get(dst, 0)
        sproc.send_seq[dst] = seq + 1
        attempt = 0
        while True:
            kind, extra = tf.outcome(src, dst, smach.name, dmach.name,
                                     seq, attempt, sproc.clock)
            if kind == "ok":
                return 0.0
            if kind == "delay":
                return extra
            attempt += 1
            if attempt > self.ft.max_retries:
                raise LinkFaultError(src, dst, attempt)
            wait_from = sproc.clock
            sproc.clock += self.ft.retry_timeout * (self.ft.backoff ** (attempt - 1))
            if self.tracer is not None:
                from .tracing import TraceEvent

                self.tracer.record(TraceEvent(
                    rank=src, kind="retransmit", t0=wait_from,
                    t1=sproc.clock, peer=dst,
                    label=f"attempt {attempt}",
                ))

    def _deliver(self, msg: Message) -> None:
        """Match against posted receives or queue as unexpected (lock held)."""
        dproc = self.procs[msg.dst]
        for pr in dproc.posted:
            if pr.accepts(msg):
                dproc.posted.remove(pr)
                pr.message = msg
                pr.done = True
                self.scheduler.wake(dproc, at=msg.arrival)
                return
        dproc.unexpected.append(msg)
        # Wake iprobe/probe (and wildcard recv) waiters.
        self.scheduler.wake(dproc, at=msg.arrival)

    def post_recv(self, dst: int, context: int, src: int, tag: int) -> PostedRecv:
        """Post a receive; matches an unexpected message immediately if any.

        Among queued matches the one with the smallest virtual arrival is
        taken.  For a fixed source this equals queue order (per-sender
        arrivals are monotone), and for wildcard receives it makes the
        match follow *virtual* time rather than the accident of real-time
        thread scheduling — a master self-scheduling over ANY_SOURCE then
        services the worker that (virtually) finished first.
        """
        pr = PostedRecv(context, src, tag)
        with self.lock:
            best = None
            for msg in self.procs[dst].unexpected:
                if pr.accepts(msg) and (best is None or msg.arrival < best.arrival):
                    best = msg
            if best is not None:
                self.procs[dst].unexpected.remove(best)
                pr.message = best
                pr.done = True
                return pr
            self.procs[dst].posted.append(pr)
        return pr

    def wait_recv(self, dst: int, pr: PostedRecv,
                  timeout: float | None = None) -> tuple[Any, Status]:
        """:meth:`wait_message`, then decode the payload and describe the
        match in a world-rank :class:`Status`."""
        msg = self.wait_message(dst, pr, timeout)
        status = Status(source=msg.src, tag=msg.tag, nbytes=msg.nbytes,
                        arrival_vtime=msg.arrival)
        return decode_payload(msg.payload), status

    def wait_message(self, dst: int, pr: PostedRecv,
                     timeout: float | None = None) -> Message:
        """Block until ``pr`` completes; charge arrival time; return the
        matched message (payload still encoded).

        ``timeout`` is a *virtual-time* budget: if the receive can never
        complete and a deadline was set, the wait resolves to
        :class:`OperationTimeoutError` (clock advanced to the deadline)
        instead of participating in failure/deadlock resolution.  Falls
        back to ``ft.default_recv_timeout`` when None.
        """
        proc = self.procs[dst]
        if timeout is None:
            timeout = self.ft.default_recv_timeout
        deadline = None if timeout is None else proc.clock + timeout
        with self.lock:
            proc.waiting = ("recv", pr, deadline)
            try:
                while not pr.done:
                    self._wait_step(proc)
                # The receive was satisfied: a collateral wake planted
                # concurrently (stall resolution racing with the message
                # that saved us) is moot and must not leak into the next
                # operation.
                proc.wake_exc = None
            except BaseException:
                # A stale posted receive would steal the next matching
                # message; retract it before propagating.
                if pr in proc.posted:
                    proc.posted.remove(pr)
                raise
            finally:
                proc.waiting = None
            if pr.src == ANY_SOURCE and self.scheduler.deterministic:
                self._settle_wildcard(proc, pr)
            msg = pr.message
        assert msg is not None
        wait_from = proc.clock
        if msg.arrival > proc.clock:
            proc.clock = msg.arrival
        machine = self.cluster.machines[proc.machine_index]
        if machine.fail_at is not None:
            machine.check_alive(proc.clock)
        if msg.ack_seq is not None:
            # Synchronous send: acknowledge so the sender's rendezvous
            # completes; the ack costs one link latency back.
            back = self.cluster.link(proc.machine_index,
                                     self.placement[msg.src])
            ack = Message(ACK_CONTEXT, dst, msg.src, msg.ack_seq,
                          payload=encode_payload(None)[0], nbytes=0,
                          arrival=proc.clock + back.effective_latency())
            with self.lock:
                self._deliver(ack)
        if self.tracer is not None:
            from .tracing import TraceEvent

            self.tracer.record(TraceEvent(
                rank=dst, kind="recv", t0=wait_from, t1=proc.clock,
                peer=msg.src, nbytes=msg.nbytes, tag=msg.tag,
            ))
        return msg

    def probe(self, dst: int, context: int, src: int, tag: int, block: bool,
              timeout: float | None = None) -> Status | None:
        """MPI_(I)probe: peek at the first matching unexpected message.

        ``timeout`` (blocking probes only) mirrors :meth:`wait_recv`.
        """
        proc = self.procs[dst]
        if timeout is None:
            timeout = self.ft.default_recv_timeout
        deadline = None if timeout is None else proc.clock + timeout
        if not block:
            # Cooperative backends: let ready peers run so a polling loop
            # observes progress between probes (no-op under "threads").
            self.scheduler.yield_now(proc)
        with self.lock:
            try:
                while True:
                    for msg in proc.unexpected:
                        if msg.matches(context, src, tag):
                            if msg.arrival > proc.clock:
                                proc.clock = msg.arrival
                            # Satisfied: drop any concurrently planted
                            # collateral wake (see wait_recv).
                            proc.wake_exc = None
                            return Status(source=msg.src, tag=msg.tag,
                                          nbytes=msg.nbytes, arrival_vtime=msg.arrival)
                    if not block:
                        return None
                    proc.waiting = ("probe", (context, src, tag), deadline)
                    self._wait_step(proc)
            finally:
                proc.waiting = None

    # ------------------------------------------------------------------
    # external waits (runtime-level blocking, e.g. group repair drains)
    # ------------------------------------------------------------------
    def wait_until(self, world_rank: int, predicate: Callable[[], bool],
                   label: str = "external condition") -> None:
        """Block ``world_rank`` until ``predicate()`` holds.

        For runtime-level rendezvous that are not message receives (the
        repair drain waits for every survivor of a broken group to report
        in).  The predicate is evaluated under the engine lock on every
        wake-up, so it must be fast and must not acquire other locks.
        The waiter participates in stall accounting: if nothing can ever
        satisfy the predicate, the run still terminates (typed error or
        deadlock), never hangs.  Callers that change predicate-relevant
        state outside engine messaging must call :meth:`poke`.
        """
        proc = self.procs[world_rank]
        with self.lock:
            proc.waiting = ("ext", predicate, None)
            self.ext_waiters.add(world_rank)
            try:
                while not predicate():
                    self._wait_step(proc)
            finally:
                proc.waiting = None
                self.ext_waiters.discard(world_rank)

    def poke(self) -> None:
        """Wake every blocked rank to re-evaluate its wait condition.

        Required after out-of-band state changes (e.g. the HMPI runtime
        marking ranks free/dead) that external-wait predicates observe.
        """
        with self.lock:
            self.scheduler.wake_all()

    def progress(self, world_rank: int) -> None:
        """Give other ready ranks a chance to run, without charging time.

        Nonblocking polls (``iprobe``, ``Request.test``) call this so a
        poll loop observes peer progress under cooperative backends; a
        no-op under the preemptive thread backend.
        """
        self.scheduler.yield_now(self.procs[world_rank])

    # ------------------------------------------------------------------
    # stall / failure accounting
    # ------------------------------------------------------------------
    def _wait_step(self, proc: ProcessState) -> None:
        """One blocking step of a wait loop (lock held, ``waiting`` set).

        Raises any planted wake exception (or the terminal deadlock), else
        parks the rank via the scheduler, which owns stall detection and
        may return without a wake; the wait loop then re-checks.
        """
        self._raise_if_woken(proc)
        if self.deadlocked:
            raise self._deadlock_error()
        self.scheduler.block(proc)

    def _settle_wildcard(self, proc: ProcessState, pr: PostedRecv) -> None:
        """Commit a wildcard receive at its true virtual completion time.

        Deterministic backend only (lock held).  The receive completes at
        ``T = max(clock, arrival)`` — but a rank that is *ready to run
        before T* may still deliver a virtually earlier match.  (The
        classic case is a self-scheduling pool: the master drains a wave
        of queued slow-worker results while the fastest worker, whose
        next result would arrive far earlier, sits ready in the heap.)
        Let every such rank run first, then take the earliest-arriving
        match among everything delivered.  The loop terminates because
        the candidate arrival never increases while the heap minimum
        only advances.
        """
        while True:
            if proc.unexpected:
                self._prefer_earliest(proc, pr)
            assert pr.message is not None
            t = pr.message.arrival
            if t < proc.clock:
                t = proc.clock
            if not self.scheduler.ready_before(proc, t):
                return
            self.scheduler.wait_upto(proc, t)

    def _prefer_earliest(self, proc: ProcessState, pr: PostedRecv) -> None:
        """Swap a completed wildcard receive to the earliest-arriving match.

        Deterministic backend only (lock held).  A wildcard receive is
        matched at *delivery* time, but the receiver dispatches at the
        virtual time of that arrival — by which every sender with an
        earlier clock has already run.  If one of them delivered a
        virtually earlier match meanwhile, take that one instead, exactly
        as the min-arrival rule in :meth:`post_recv` would have.  The
        displaced message returns to the head of the unexpected queue:
        any message of its (context, src, tag) class still queued was
        delivered after it, so per-pair order is preserved.
        """
        best = pr.message
        assert best is not None
        for m in proc.unexpected:
            if pr.accepts(m) and m.arrival < best.arrival:
                best = m
        if best is not pr.message:
            proc.unexpected.remove(best)
            proc.unexpected.appendleft(pr.message)
            pr.message = best
    def _raise_if_woken(self, proc: ProcessState) -> None:
        """Raise and clear the exception planted by the stall resolver."""
        exc = proc.wake_exc
        if exc is not None:
            proc.wake_exc = None
            if isinstance(exc, OperationTimeoutError):
                # The timer ran out: virtual time passes to the deadline.
                proc.clock = max(proc.clock, exc.deadline)
            raise exc

    def _condition_satisfied(self, proc: ProcessState) -> bool:
        """Whether a waiting rank's wake-up condition already holds (lock held)."""
        assert proc.waiting is not None
        kind, spec, _deadline = proc.waiting
        if kind == "recv":
            return spec.done
        if kind == "ext":
            return bool(spec())
        context, src, tag = spec
        return any(m.matches(context, src, tag) for m in proc.unexpected)

    def failed_ranks(self, at_vtime: float | None = None) -> set[int]:
        """World ranks that are (or will be) victims of machine failure.

        A rank counts as failed when its thread already died of
        :class:`MachineFailure`, or its machine has a scheduled death no
        later than ``at_vtime`` (static detection — deterministic, no race
        with the victim's own discovery).  ``at_vtime=None`` counts every
        scheduled death.
        """
        with self.lock:
            out = set()
            for p in self.procs:
                if p.failed:
                    out.add(p.rank)
                    continue
                fail_at = self.cluster.machine(p.machine_index).fail_at
                if fail_at is not None and (at_vtime is None or fail_at <= at_vtime):
                    out.add(p.rank)
            return out

    def _unreachable_ranks(self) -> set[int]:
        """Ranks that can never send another message (lock held).

        Only meaningful during stall resolution, when no message is in
        flight: a machine-failed rank, a rank whose thread ended with an
        exception, or a rank whose machine has a *scheduled* death will not
        produce further traffic — the last because, with nothing able to
        arrive, virtual time at that rank runs out at ``fail_at`` before
        anything else happens.
        """
        out = set()
        for p in self.procs:
            if p.failed or (p.finished and p.exception is not None):
                out.add(p.rank)
                continue
            if not p.finished and \
                    self.cluster.machine(p.machine_index).fail_at is not None:
                out.add(p.rank)
        return out

    def _check_stall(self) -> None:
        """Resolve the stall iff no unfinished rank can ever progress.

        The thread backend calls it (lock held) whenever a rank is about to
        block and whenever a rank finishes.  Sends are eager, so if every
        unfinished rank is waiting on an unsatisfied condition, no future
        delivery can occur and the run is stuck — some waiter must be woken
        with a typed error (or, with no failure in sight, a true deadlock).
        """
        if not self._started or self.deadlocked:
            return
        any_unfinished = False
        for p in self.procs:
            if p.finished:
                continue
            any_unfinished = True
            if p.waiting is None or p.wake_exc is not None \
                    or self._condition_satisfied(p):
                return
        if any_unfinished:
            self._resolve_stall()

    def _resolve_stall(self) -> None:
        """Pick stall victims and wake them with typed errors (lock held).

        Priority: (1) waiters whose virtual-time deadline can no longer be
        met time out; (2) waiters on sources that can never send again get
        :class:`RankFailedError`; (3) with a failure somewhere, every
        remaining engine waiter is collateral damage of it — typed, not a
        deadlock; (4) no failure anywhere means a genuine program deadlock,
        which stays terminal.  Only the victims wake: survivors keep
        waiting and may be satisfied by messages the woken ranks (e.g. a
        repairing host) send afterwards — this is what makes the stall
        *recoverable*.
        """
        unreachable = self._unreachable_ranks()
        timed: list[tuple[ProcessState, BaseException]] = []
        victims: list[tuple[ProcessState, BaseException]] = []
        engine_waiters: list[ProcessState] = []
        for p in self.procs:
            if p.finished or p.waiting is None:
                continue
            kind, spec, deadline = p.waiting
            if kind == "ext":
                continue
            engine_waiters.append(p)
            op = "recv" if kind == "recv" else "probe"
            if deadline is not None:
                timed.append((p, OperationTimeoutError(
                    f"{op} at rank {p.rank}", deadline - p.clock, deadline)))
                continue
            src = spec.src if kind == "recv" else spec[1]
            if src == ANY_SOURCE:
                if unreachable:
                    victims.append((p, self._rank_failed(unreachable, p, op)))
            elif src in unreachable:
                victims.append((p, self._rank_failed({src}, p, op)))
        if timed:
            # Timed waiters resolve first, alone: once awake they may send
            # (e.g. trigger a repair), which can still satisfy the others.
            victims = timed
        if not victims and engine_waiters and (unreachable or self.failures):
            # No waiter points directly at a dead rank, but a failure
            # exists: the stall is its transitive damage.
            victims = [
                (p, self._rank_failed(unreachable, p, "wait"))
                for p in engine_waiters
            ]
        if victims:
            for p, exc in victims:
                p.wake_exc = exc
                self.scheduler.wake(p)
            return
        # Nothing typed to report: either a pure deadlock among engine
        # waiters, or only external waiters are left with no rank able to
        # satisfy them.  Both are terminal.
        self._declare_deadlock()

    def _rank_failed(self, ranks: set[int], waiter: ProcessState,
                     op: str) -> RankFailedError:
        machine = vtime = None
        if len(ranks) == 1:
            mach = self.cluster.machine(
                self.procs[next(iter(ranks))].machine_index)
            if mach.fail_at is not None:
                machine, vtime = mach.name, mach.fail_at
        return RankFailedError(
            ranks, machine=machine, vtime=vtime,
            op=f"{op} at rank {waiter.rank}")

    def _declare_deadlock(self) -> None:
        self.deadlocked = True
        self.scheduler.wake_all()

    def _deadlock_error(self) -> DeadlockError:
        if self.failures:
            dead = ", ".join(f"{f.machine}@{f.vtime:.4f}" for f in self.failures)
            return DeadlockError(
                f"no rank can make progress; failed machines: {dead}"
            )
        return DeadlockError("all live ranks are blocked in receive: deadlock")

    # ------------------------------------------------------------------
    # SPMD run driver
    # ------------------------------------------------------------------
    def run(self, target: Callable[[int], Any], timeout: float | None = 120.0) -> None:
        """Run ``target(world_rank)`` on every rank to completion.

        Task lifecycle (thread-per-rank or cooperative handoff) belongs to
        the scheduler.  Exceptions are captured per rank;
        :class:`MachineFailure` is recorded in :attr:`failures` and fault
        fallout at survivors (:class:`RankFailedError`,
        :class:`LinkFaultError`, :class:`OperationTimeoutError`) stays in
        the per-rank ``exception`` slots (fault injection is an expected
        outcome); any other exception re-raises after the run from the
        lowest failing rank.
        """

        def runner(rank: int) -> None:
            proc = self.procs[rank]
            try:
                proc.result = target(rank)
            except MachineFailure as mf:
                proc.failed = True
                proc.exception = mf
                with self.lock:
                    self.failures.append(mf)
                if self.tracer is not None:
                    from .tracing import TraceEvent

                    self.tracer.record(TraceEvent(
                        rank=rank, kind="death", t0=mf.vtime, t1=mf.vtime,
                        label=mf.machine,
                    ))
            except BaseException as exc:  # noqa: BLE001 — reported after join
                proc.failed = True
                proc.exception = exc
            finally:
                with self.lock:
                    proc.finished = True
                    self.scheduler.on_finish(proc)

        with self.lock:
            self._started = True
        if self.telemetry is not None:
            self.telemetry.emit("engine", "run.start",
                                backend=self.backend, nprocs=self.nprocs)
        try:
            self.scheduler.run_all(runner, timeout)
        finally:
            profile = self.scheduler.profile
            if self.metrics is not None:
                profile.publish(self.metrics)
            if self.telemetry is not None:
                self.telemetry.emit(
                    "engine", "run.finish", nprocs=self.nprocs,
                    failures=len(self.failures), **profile.as_dict())
        # Re-raise the first program bug.  Fault fallout (MachineFailure at
        # the victim; RankFailedError / LinkFaultError /
        # OperationTimeoutError at survivors) is an expected outcome of
        # injection, recorded per rank, not a bug; a DeadlockError is
        # secondary damage when a failure exists anywhere.
        any_dead = bool(self.failures) or any(
            isinstance(p.exception, MachineFailure)
            or self.cluster.machine(p.machine_index).fail_at is not None
            for p in self.procs
        )
        for proc in self.procs:
            exc = proc.exception
            if exc is None or isinstance(exc, _FAULT_FALLOUT):
                continue
            if isinstance(exc, DeadlockError) and any_dead:
                continue
            raise exc
