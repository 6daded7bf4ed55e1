"""Differential equivalence: ``threads`` vs ``events`` backends.

The event scheduler is only a valid replacement for the thread backend if
it is *observationally identical*: every scenario must produce bitwise-
equal per-rank finish times, delivered payloads, and typed-error
outcomes under both engines.  Each scenario here runs twice — once per
backend — and the two :class:`MPIRunResult`s are compared field by
field.  A representative cross-section runs in tier-1; the full corpus
sweep (apps, larger pools, every collective algorithm) is slow-marked.
"""

import pytest

from repro.cluster import (
    FaultSchedule,
    TOPOLOGY_PRESETS,
    inject_faults,
    paper_network,
    uniform_network,
)
from repro.core import run_hmpi
from repro.mpi import ANY_SOURCE, Status, run_mpi
from repro.mpi.ops import SUM, MAX
from repro.mpi.pool import Task, WorkerPool
from repro.perfmodel import CallableModel
from repro.util.errors import OperationTimeoutError, RankFailedError

BACKENDS = ("threads", "events")


def run_both(app, cluster_factory, runner=run_mpi, **kw):
    """Run ``app`` under both backends; assert bitwise-identical results.

    Clusters are rebuilt per run (fault schedules and load models are
    stateful), which also guarantees neither run can leak state into the
    other.  Returns the events-backend result for scenario-specific
    assertions.
    """
    results = {}
    for backend in BACKENDS:
        results[backend] = runner(app, cluster_factory(), engine=backend, **kw)
    ref, alt = results["threads"], results["events"]
    assert ref.finish_times == alt.finish_times
    assert ref.makespan == alt.makespan
    assert ref.results == alt.results
    assert [type(e) for e in ref.exceptions] == \
           [type(e) for e in alt.exceptions]
    return alt


# ----------------------------------------------------------------------
# scenario corpus
# ----------------------------------------------------------------------

def scenario_ring(env):
    """pt2pt ring with per-rank compute: clocks must interleave equally."""
    env.compute(5.0 * (env.rank + 1))
    nxt = (env.rank + 1) % env.size
    prv = (env.rank - 1) % env.size
    env.comm_world.send(env.rank * 10, nxt, nbytes=1 << 12)
    got = env.comm_world.recv(prv)
    return (got, round(env.wtime(), 12))


def scenario_wildcard_fanin(env):
    """ANY_SOURCE fan-in: service order must follow virtual arrivals.

    Every sender posts its message before entering the barrier, and rank 0
    receives only after leaving it, so all messages are queued before the
    first wildcard receive under either backend and min-virtual-arrival
    matching decides the order.
    """
    comm = env.comm_world
    if env.rank == 0:
        comm.barrier()
        got = []
        for _ in range(env.size - 1):
            status = Status()
            payload = comm.recv(ANY_SOURCE, status=status)
            got.append((payload, status.arrival_vtime))
        return (got, env.wtime())
    env.compute(3.0 * ((env.rank * 7) % 5 + 1))
    comm.send((env.rank, env.wtime()), 0, nbytes=1 << 10)
    comm.barrier()
    return None


def scenario_ssend(env):
    """Synchronous-send rendezvous charges the ack round trip."""
    if env.rank == 0:
        env.comm_world.ssend("payload", 1, nbytes=1 << 16)
        return env.wtime()
    if env.rank == 1:
        env.compute(2.0)
        got = env.comm_world.recv(0)
        return (got, env.wtime())
    return None


def scenario_probe(env):
    """Blocking probe then targeted recv."""
    if env.rank == 0:
        status = env.comm_world.probe(ANY_SOURCE)
        got = env.comm_world.recv(status.source, status.tag)
        return (status.source, got, env.wtime())
    env.compute(1.0 + env.rank)
    env.comm_world.send(env.rank * 100, 0, tag=7, nbytes=512)
    return None


def scenario_requests(env):
    """Nonblocking irecv/isend with waitall."""
    comm = env.comm_world
    nxt = (env.rank + 1) % env.size
    prv = (env.rank - 1) % env.size
    reqs = [comm.irecv(prv), comm.irecv(prv)]
    comm.isend(("a", env.rank), nxt, nbytes=256)
    env.compute(2.0)
    comm.isend(("b", env.rank), nxt, nbytes=256)
    from repro.mpi import waitall
    vals = [v for v, _ in waitall(reqs)]
    return (vals, env.wtime())


def scenario_collectives(env):
    """A chain of collectives mixing algorithms."""
    comm = env.comm_world
    env.compute(float(env.rank))
    total = comm.allreduce(env.rank, SUM, algorithm="binomial")
    peak = comm.reduce(env.wtime(), MAX, root=0, algorithm="flat")
    ranks = comm.allgather(env.rank, algorithm="ring")
    comm.barrier(algorithm="dissemination")
    return (total, peak, ranks, env.wtime())


def scenario_pool(env):
    """Greedy self-scheduling worker pool (the wildcard stress case)."""
    pool = WorkerPool(env.comm_world, env.compute)
    if pool.is_master:
        # Distinct volumes: tied arrivals are serviced in queue order,
        # which under the thread backend is a real-time race — arrival
        # ties are the one place the reference itself is unordered.
        tasks = [Task(volume=7.0 + 1.37 * i, payload=i, nbytes=256)
                 for i in range(12)]
        out = pool.map(tasks)
        return (out, env.wtime())
    # Per-worker served counts are NOT compared: which equally-good
    # worker the master services is a real-time race under the thread
    # backend (the sleep hack only makes min-arrival matching *likely*),
    # while the event backend orders by virtual arrival exactly.  The
    # delivered results, makespan, and finish times are pinned instead.
    pool.worker_loop()
    return None


def scenario_recv_timeout(env):
    """Timed receive on a silent peer: typed timeout, clock at deadline."""
    if env.rank == 0:
        try:
            env.comm_world.recv(1, timeout=4.0)
        except OperationTimeoutError:
            return ("timeout", env.wtime())
        return ("unexpected",)
    env.compute(1.0)
    return ("silent", env.wtime())


def scenario_rank_failure(env):
    """Survivor blocked on a dead peer gets RankFailedError."""
    if env.rank == 1:
        env.compute(200.0)  # the machine dies at t=0.5
        return None
    if env.rank == 0:
        try:
            env.comm_world.recv(1)
        except RankFailedError as exc:
            return ("typed", tuple(sorted(exc.ranks)), env.wtime())
        return ("untyped",)
    env.compute(0.25)
    return ("bystander", env.wtime())


MPI_SCENARIOS = {
    "ring": (scenario_ring, lambda: paper_network()),
    "wildcard_fanin": (scenario_wildcard_fanin, lambda: paper_network()),
    "ssend": (scenario_ssend, lambda: uniform_network([100.0, 60.0, 30.0])),
    "probe": (scenario_probe, lambda: uniform_network([100.0] * 4)),
    "requests": (scenario_requests, lambda: paper_network()),
    "collectives": (scenario_collectives, lambda: paper_network()),
    "pool": (scenario_pool, lambda: paper_network()),
    "topology": (scenario_collectives,
                 lambda: TOPOLOGY_PRESETS["two_site"]()),
}


def _failing_cluster():
    cluster = uniform_network([100.0, 100.0, 100.0])
    inject_faults(cluster, FaultSchedule({"m01": 0.5}))
    return cluster


FT_SCENARIOS = {
    "recv_timeout": (scenario_recv_timeout,
                     lambda: uniform_network([100.0, 100.0])),
    "rank_failure": (scenario_rank_failure, _failing_cluster),
}


class TestDifferentialMPI:
    @pytest.mark.parametrize("name", sorted(MPI_SCENARIOS))
    def test_backends_agree(self, name):
        app, factory = MPI_SCENARIOS[name]
        run_both(app, factory)

    def test_wildcard_fanin_in_arrival_order(self):
        app, factory = MPI_SCENARIOS["wildcard_fanin"]
        got, _ = run_both(app, factory).results[0]
        arrivals = [arrival for _, arrival in got]
        assert len(got) == factory().size - 1
        assert arrivals == sorted(arrivals)
        assert len(set(arrivals)) == len(arrivals)

    @pytest.mark.parametrize("name", sorted(FT_SCENARIOS))
    def test_backends_agree_under_faults(self, name):
        app, factory = FT_SCENARIOS[name]
        run_both(app, factory, timeout=30.0)


class TestDifferentialHMPI:
    def test_group_lifecycle(self):
        """recon + group_create/free + collective inside the group."""

        def app(hmpi):
            hmpi.recon()
            model = CallableModel(
                nproc=3,
                node_volume=lambda i: [300.0, 200.0, 100.0][i],
                link_volume=lambda s, d: 4096.0,
            )
            gid = hmpi.group_create(model)
            if gid is None:
                return ("released", hmpi.wtime())
            if gid.is_member:
                my_rank = gid.rank
                hmpi.compute([300.0, 200.0, 100.0][my_rank])
                gid.comm.barrier()
                hmpi.group_free(gid)
                return ("member", my_rank, hmpi.wtime())
            return ("outside", hmpi.wtime())

        run_both(app, paper_network, runner=run_hmpi)


@pytest.mark.slow
class TestDifferentialSweep:
    """Full-corpus sweep: every collective algorithm, apps, a big pool."""

    @pytest.mark.parametrize("algorithm", ["binomial", "flat", "chain",
                                           "hierarchical", "auto"])
    def test_bcast_algorithms(self, algorithm):
        def app(env):
            env.compute(float(env.rank % 3))
            got = env.comm_world.bcast(
                ("blob", env.size) if env.rank == 0 else None,
                root=0, algorithm=algorithm, nbytes=1 << 14)
            return (got, env.wtime())

        run_both(app, lambda: TOPOLOGY_PRESETS["two_site"]())

    def test_big_pool(self):
        """64-task pool: at this scale the thread backend's real-time
        service races drift from min-arrival matching (each race
        perturbs the next assignment), so makespans are no longer
        comparable — the reference itself is racy.  Pin what each
        backend does guarantee: delivered payloads agree across
        backends, and the event backend is bitwise-repeatable."""

        def app(env):
            pool = WorkerPool(env.comm_world, env.compute)
            if pool.is_master:
                tasks = [Task(volume=5.0 + 0.61 * i, payload=i,
                              nbytes=128) for i in range(64)]
                return pool.map(tasks)
            pool.worker_loop()  # served counts are racy; see scenario_pool
            return None

        runs = {be: run_mpi(app, paper_network(), engine=be)
                for be in BACKENDS}
        assert runs["threads"].results[0] == runs["events"].results[0]
        again = run_mpi(app, paper_network(), engine="events")
        assert again.finish_times == runs["events"].finish_times
        assert again.results == runs["events"].results

    def test_matmul_driver(self):
        from repro.apps.matmul import run_matmul_hmpi

        results = {}
        for backend in BACKENDS:
            r = run_matmul_hmpi(paper_network(), n=12, r=6, m=3, l=6,
                                engine=backend)
            results[backend] = (r.algorithm_time, r.makespan)
        assert results["threads"] == results["events"]

    def test_jacobi_ft_driver(self):
        from repro.apps.jacobi import run_jacobi_ft
        from repro.cluster import FaultSchedule, inject_faults

        results = {}
        for backend in BACKENDS:
            cluster = uniform_network([100.0] * 5)
            inject_faults(cluster, FaultSchedule({"m02": 0.05}))
            r = run_jacobi_ft(cluster, n=20, p=4, niter=4, k=50,
                              engine=backend)
            assert r.error is None
            results[backend] = (r.repairs, r.makespan)
        assert results["threads"] == results["events"]
