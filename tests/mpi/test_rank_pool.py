"""The event backend's rank pool: parked workers that outlive a run.

Every run after the first reuses the workers earlier runs parked, so
these tests check what a fresh thread per rank used to give for free:
a failed run leaves nothing behind, the thread count stays bounded, a
forked child can still run, and no rank sees another run's context.
"""

import contextvars
import gc
import os
import threading
import time
import weakref

import pytest

from repro.cluster import uniform_network
from repro.mpi import SUM, run_mpi
from repro.util.errors import DeadlockError


def sum_app(env):
    return env.comm_world.allreduce(env.rank, SUM)


def assert_clean_run(nprocs=32):
    res = run_mpi(sum_app, uniform_network([100.0] * 4), nprocs=nprocs)
    assert not res.failed
    assert res.results == [nprocs * (nprocs - 1) // 2] * nprocs


class TestRecovery:
    def test_after_rank_exception(self):
        def app(env):
            if env.rank == 3:
                raise ValueError("boom")
            return env.rank

        with pytest.raises(ValueError, match="boom"):
            run_mpi(app, uniform_network([100.0] * 4), nprocs=8)
        assert_clean_run()

    def test_after_virtual_deadlock(self):
        def app(env):
            return env.comm_world.recv((env.rank + 1) % env.size, tag=5)

        with pytest.raises(DeadlockError):
            run_mpi(app, uniform_network([100.0] * 4), nprocs=8)
        assert_clean_run()

    def test_after_real_time_timeout(self):
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
        assert_clean_run()


def test_thread_count_bounded():
    baseline = threading.active_count()
    for _ in range(20):
        assert_clean_run(256)
    assert threading.active_count() <= baseline + 256 + 2


def test_forked_child_runs():
    assert_clean_run()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child side
        code = 1
        try:
            assert_clean_run()
            code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("forked child did not finish its run within 30 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0


def test_no_context_leak_between_runs():
    var = contextvars.ContextVar("rank_pool_probe")

    def setter(env):
        var.set(env.rank)

    def getter(env):
        return var.get(None)

    cluster = uniform_network([100.0] * 4)
    run_mpi(setter, cluster, nprocs=16)
    res = run_mpi(getter, cluster, nprocs=16)
    assert res.results == [None] * 16


def test_parked_workers_release_the_engine():
    refs = []

    def app(env):
        refs.append(weakref.ref(env.comm_world._engine))

    run_mpi(app, uniform_network([100.0] * 4), nprocs=8)
    deadline = time.monotonic() + 10.0
    while refs[0]() is not None and time.monotonic() < deadline:
        gc.collect()
        time.sleep(0.001)
    assert refs[0]() is None
