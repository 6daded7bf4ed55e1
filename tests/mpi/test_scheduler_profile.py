"""Host-side self-profiler: both backends fill SchedulerProfile, the
engine publishes it as gauges and streams lifecycle telemetry."""

import time

import pytest

from repro.cluster import uniform_network
from repro.mpi import run_mpi
from repro.mpi.scheduler import _RANK_POOL, SchedulerProfile
from repro.obs import EventBus, MetricsRegistry

BACKENDS = ("events", "threads")


def ring_app(env):
    comm = env.comm_world
    nxt = (env.rank + 1) % env.size
    prv = (env.rank - 1) % env.size
    if env.rank == 0:
        comm.send(0, nxt, nbytes=8)
        comm.recv(prv)
    else:
        comm.send(comm.recv(prv), nxt, nbytes=8)
    return env.rank


class TestSchedulerProfile:
    def test_fresh_profile_is_zeroed(self):
        profile = SchedulerProfile("events")
        assert profile.as_dict() == {
            "backend": "events",
            "task_switches": 0,
            "heap_high_water": 0,
            "wall_seconds": 0.0,
            "switches_per_sec": 0.0,
            "threads_started": 0,
        }

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_populates_profile(self, backend):
        registry = MetricsRegistry()
        result = run_mpi(ring_app, uniform_network([100.0] * 4),
                         engine=backend, metrics=registry)
        assert not result.failed
        switches = registry.get_value("engine.sched.task_switches",
                                      backend=backend)
        wall = registry.get_value("engine.sched.wall_seconds",
                                  backend=backend)
        # The event core dispatches every rank through the heap; the
        # thread backend only counts true blocking waits (under GIL
        # interleaving most receives find their message already queued).
        assert switches >= (4 if backend == "events" else 1)
        assert wall > 0.0

    def test_event_backend_tracks_heap_high_water(self):
        registry = MetricsRegistry()
        run_mpi(ring_app, uniform_network([100.0] * 6),
                engine="events", metrics=registry)
        high = registry.get_value("engine.sched.heap_high_water",
                                  backend="events")
        assert 1 <= high <= 6

    def test_second_run_starts_no_threads(self):
        """Rank workers park between runs: an identical run right after
        the first reuses them, and the gauge says so."""
        cluster = uniform_network([100.0] * 4)
        run_mpi(ring_app, cluster, nprocs=64)
        # The worker that ran the last rank may still be on its way back
        # to the pool; wait for it so the count below is exact.
        deadline = time.monotonic() + 10.0
        while _RANK_POOL.parked < 64 and time.monotonic() < deadline:
            time.sleep(0.001)
        registry, bus = MetricsRegistry(), EventBus()
        result = run_mpi(ring_app, cluster, nprocs=64, metrics=registry,
                         telemetry=bus)
        assert not result.failed
        assert registry.get_value("engine.sched.threads_started",
                                  backend="events") == 0
        finish = next(e for e in bus.tail() if e.name == "run.finish")
        assert finish.payload["threads_started"] == 0

    def test_switches_per_sec_derived(self):
        profile = SchedulerProfile("events")
        profile.task_switches = 10
        profile.wall_seconds = 2.0
        assert profile.switches_per_sec == 5.0


class TestEngineLifecycleTelemetry:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_start_and_finish_events(self, backend):
        bus = EventBus()
        result = run_mpi(ring_app, uniform_network([100.0] * 4),
                         engine=backend, telemetry=bus)
        assert not result.failed
        events = [(e.category, e.name) for e in bus.tail()]
        assert events == [("engine", "run.start"), ("engine", "run.finish")]
        start, finish = bus.tail()
        assert start.payload["nprocs"] == 4
        assert start.payload["backend"] == backend
        assert finish.payload["failures"] == 0
        assert finish.payload["task_switches"] >= 1
        assert finish.payload["wall_seconds"] > 0.0

    def test_no_bus_no_events_no_errors(self):
        result = run_mpi(ring_app, uniform_network([100.0] * 4))
        assert not result.failed
