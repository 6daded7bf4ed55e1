"""Pinned dispatch order of the event scheduler's baton.

The event backend hands one baton between parked rank threads; the order
in which it does so decides every virtual clock.  Each scenario below
drives a different hand-off path — blocking receives, wildcard settling
(``wait_upto``), voluntary yields (``yield_now``), and a rank ending by
exception (``on_finish`` plus stall resolution) — and compares the run's
scheduler profile, makespan and full trace (in recording order, which is
execution order) against values recorded from a known-good build.  Any
change to how the baton is passed that reorders a single dispatch moves
at least one of them.
"""

import hashlib
import threading

import pytest

from repro.cluster import uniform_network
from repro.mpi import ANY_SOURCE, Engine, Tracer, run_mpi
from repro.mpi.group import Group
from repro.mpi.launcher import MPIEnv
from repro.util.errors import DeadlockError


def observe(app, speeds, nprocs):
    """Run ``app`` on the event backend; return what the baton decides.

    Drives :class:`Engine` directly (as ``run_mpi`` does) so a run whose
    program raises still yields its profile, clocks and trace.
    """
    cluster = uniform_network(speeds)
    placement = [i % cluster.size for i in range(nprocs)]
    tracer = Tracer()
    engine = Engine(cluster, placement, tracer=tracer, engine="events")
    world = Group(range(nprocs))
    raised = None
    try:
        engine.run(lambda rank: app(MPIEnv(engine, rank, world)), timeout=60)
    except ValueError as exc:   # a program bug re-raised after the run
        raised = type(exc).__name__
    digest = hashlib.sha256()
    for e in tracer.events:
        digest.update(repr((e.rank, e.kind, e.t0.hex(), e.t1.hex(), e.peer,
                            e.nbytes, e.tag, e.volume.hex(),
                            e.label)).encode())
    profile = engine.scheduler.profile
    return {
        "results": hashlib.sha256(repr(
            [p.result for p in engine.procs]).encode()).hexdigest()[:16],
        "task_switches": profile.task_switches,
        "heap_high_water": profile.heap_high_water,
        "makespan": max(p.clock for p in engine.procs).hex(),
        "events": len(tracer.events),
        "trace": digest.hexdigest()[:16],
        "raised": raised,
        "exceptions": {p.rank: type(p.exception).__name__
                       for p in engine.procs if p.exception is not None},
    }


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------

def ring(env, laps=3):
    """Token ring with uneven per-hop compute: every receive blocks."""
    comm = env.comm_world
    nxt, prv = (env.rank + 1) % env.size, (env.rank - 1) % env.size
    token = 0
    for lap in range(laps):
        if env.rank == 0:
            comm.send(token, nxt, tag=lap, nbytes=64 + lap)
            token = comm.recv(prv, tag=lap)
        else:
            token = comm.recv(prv, tag=lap)
            env.compute(1.0 + (env.rank * 7 + lap) % 5)
            comm.send(token + 1, nxt, tag=lap, nbytes=64 + lap)
    return token


def master_worker(env, ntasks=24):
    """Self-scheduling pool: the master takes results from ANY_SOURCE."""
    comm = env.comm_world
    if env.rank == 0:
        sent = done = 0
        for w in range(1, env.size):
            comm.send(sent, w, tag=1, nbytes=256)
            sent += 1
        order = []
        while done < ntasks:
            worker, task = comm.recv(ANY_SOURCE, tag=2)
            order.append((worker, task))
            done += 1
            nxt = sent if sent < ntasks else -1
            comm.send(nxt, worker, tag=1, nbytes=256)
            sent += 1
        return order
    while True:
        task = comm.recv(0, tag=1)
        if task < 0:
            return None
        env.compute(2.0 + (task * 5) % 7)
        comm.send((env.rank, task), 0, tag=2, nbytes=1024)


def iprobe_poll(env):
    """Rank 0 releases the parked senders, then polls with iprobe until
    every reply is in; a sender runs only once the poller's clock passes
    the arrival of its release."""
    comm = env.comm_world
    if env.rank == 0:
        for r in range(1, env.size):
            comm.recv(r, tag=5)
        for r in range(1, env.size):
            comm.send(r, r, tag=4, nbytes=4096 * r)
        got, polls = [], 0
        while len(got) < env.size - 1:
            if comm.iprobe(ANY_SOURCE, tag=3) is None:
                polls += 1
                env.compute(0.05)
                continue
            got.append(comm.recv(ANY_SOURCE, tag=3))
        return polls, got
    comm.send(env.rank, 0, tag=5, nbytes=16)
    comm.recv(0, tag=4)
    env.compute(3.0 * env.rank)
    comm.send(env.rank, 0, tag=3, nbytes=128)
    return None


def one_rank_raises(env):
    """Rank 2 raises mid-run; its peers block on it and must be resolved."""
    comm = env.comm_world
    nxt, prv = (env.rank + 1) % env.size, (env.rank - 1) % env.size
    for lap in range(2):
        if env.rank == 2 and lap == 1:
            raise ValueError("rank 2 gives up")
        if env.rank == 0:
            comm.send(lap, nxt, tag=lap, nbytes=32)
            comm.recv(prv, tag=lap)
        else:
            v = comm.recv(prv, tag=lap)
            env.compute(1.5)
            comm.send(v, nxt, tag=lap, nbytes=32)
    return env.rank


SPEEDS = [100.0, 60.0, 140.0, 80.0, 120.0, 50.0, 90.0, 110.0]

SCENARIOS = {
    "ring64": (ring, SPEEDS, 64),
    "master_worker": (master_worker, SPEEDS[:5], 5),
    "iprobe_poll": (iprobe_poll, SPEEDS[:4], 4),
    "one_rank_raises": (one_rank_raises, SPEEDS[:4], 4),
}

#: Recorded from the Event-based baton; any baton must reproduce them.
PINNED = {
    "ring64": {
        "results": "34cc92a1554ae563", "task_switches": 256,
        "heap_high_water": 64, "makespan": "0x1.b438981efbb72p+5",
        "events": 573, "trace": "facd93c549f03718",
        "raised": None, "exceptions": {},
    },
    "master_worker": {
        "results": "da2c9ad1c44ab79d", "task_switches": 57,
        "heap_high_water": 8, "makespan": "0x1.5727f87aded1bp-2",
        "events": 128, "trace": "ef8da333265fe4a1",
        "raised": None, "exceptions": {},
    },
    "iprobe_poll": {
        "results": "8a1daf5d0edf2dee", "task_switches": 10,
        "heap_high_water": 6, "makespan": "0x1.d3f21a8f22725p-4",
        "events": 24, "trace": "e932178d716ac1b8",
        "raised": None, "exceptions": {},
    },
    "one_rank_raises": {
        "results": "9481b4da189e7288", "task_switches": 10,
        "heap_high_water": 4, "makespan": "0x1.49397ba7d9af9p-4",
        "events": 15, "trace": "d5c6580116ba81a7",
        "raised": "ValueError",
        "exceptions": {0: "RankFailedError", 2: "ValueError",
                       3: "RankFailedError"},
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_dispatch_order_pinned(name):
    app, speeds, nprocs = SCENARIOS[name]
    assert observe(app, speeds, nprocs) == PINNED[name]


def test_real_time_timeout_raises_deadlock():
    """The ``timeout=`` safety net still fires while a rank holds the
    baton in real time."""
    release = threading.Event()

    def app(env):
        if env.rank == 0:
            release.wait(5.0)
        return env.comm_world.recv(0, tag=9) if env.rank == 1 else None

    try:
        with pytest.raises(DeadlockError, match="real time"):
            run_mpi(app, uniform_network([100.0, 100.0]), timeout=0.05)
    finally:
        release.set()
