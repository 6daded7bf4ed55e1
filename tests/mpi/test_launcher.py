"""Launcher and environment behaviour."""

import pytest

from repro.cluster import TCP_100MBIT, uniform_network
from repro.mpi import run_mpi
from repro.mpi.launcher import default_placement
from repro.util.errors import MPIError


class TestDefaultPlacement:
    def test_one_per_machine(self):
        cluster = uniform_network([1.0, 2.0, 3.0])
        assert default_placement(cluster) == [0, 1, 2]

    def test_round_robin_overflow(self):
        cluster = uniform_network([1.0, 2.0])
        assert default_placement(cluster, 5) == [0, 1, 0, 1, 0]

    def test_fewer_than_machines(self):
        cluster = uniform_network([1.0, 2.0, 3.0])
        assert default_placement(cluster, 2) == [0, 1]

    def test_zero_rejected(self):
        with pytest.raises(MPIError):
            default_placement(uniform_network([1.0]), 0)


class TestRunMpi:
    def test_args_and_kwargs_forwarded(self, pair_cluster):
        def app(env, a, b=0):
            return (env.rank, a, b)

        res = run_mpi(app, pair_cluster, args=(7,), kwargs={"b": 9})
        assert res.results == [(0, 7, 9), (1, 7, 9)]

    def test_result_accessors(self, pair_cluster):
        def app(env):
            env.compute(10.0)
            return env.rank * 2

        res = run_mpi(app, pair_cluster)
        assert res.result_of(1) == 2
        assert not res.failed
        assert res.placement == [0, 1]
        assert res.makespan == max(res.finish_times)

    def test_invalid_placement_rejected(self, pair_cluster):
        def app(env):
            return None

        with pytest.raises(MPIError):
            run_mpi(app, pair_cluster, placement=[0, 7])

    def test_app_exception_propagates(self, pair_cluster):
        def app(env):
            if env.rank == 1:
                raise RuntimeError("boom in rank 1")
            return "ok"

        with pytest.raises(RuntimeError, match="boom in rank 1"):
            run_mpi(app, pair_cluster, timeout=10)

    def test_env_accessors(self, pair_cluster):
        def app(env):
            return (env.machine_index, env.machine.name,
                    env.cluster.size, list(env.placement))

        res = run_mpi(app, pair_cluster)
        assert res.results[1] == (1, "m01", 2, [0, 1])

    def test_single_rank_run(self):
        cluster = uniform_network([123.0])

        def app(env):
            env.compute(123.0)
            env.comm_world.barrier()
            return env.comm_world.allgather(env.rank)

        res = run_mpi(app, cluster)
        assert res.results == [[0]]
        assert res.makespan == pytest.approx(1.0)


class TestConcurrencyParameter:
    def test_explicit_concurrency_overrides_placement_count(self):
        cluster = uniform_network([100.0])

        def app(env):
            # Two ranks placed on the machine, but caller declares it has
            # the CPU to itself.
            env.compute(100.0, concurrency=1)
            return env.wtime()

        res = run_mpi(app, cluster, placement=[0, 0])
        assert res.results[0] == pytest.approx(1.0)

    def test_invalid_concurrency(self):
        cluster = uniform_network([100.0])

        def app(env):
            with pytest.raises(MPIError):
                env.compute(1.0, concurrency=0)
            return True

        res = run_mpi(app, cluster)
        assert res.results[0]


@pytest.mark.slow
class TestScale:
    def test_ten_thousand_rank_token_ring_completes(self):
        """One lap of a token around 10 000 ranks on the event core:
        every receive blocks, so every hop is a scheduler hand-off."""
        nranks = 10_000

        def ring(env):
            comm = env.comm_world
            nxt, prv = (env.rank + 1) % env.size, (env.rank - 1) % env.size
            if env.rank == 0:
                comm.send(0, nxt, nbytes=64)
                return comm.recv(prv)
            comm.send(comm.recv(prv) + 1, nxt, nbytes=64)
            return None

        res = run_mpi(ring, uniform_network([100.0] * 64), nprocs=nranks,
                      timeout=600.0)
        assert not res.failed
        assert res.results[0] == nranks - 1
        # neighbours always sit on different machines: one TCP hop each
        assert res.makespan == pytest.approx(
            nranks * TCP_100MBIT.transfer_time(64), rel=1e-9)
