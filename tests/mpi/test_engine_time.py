"""Virtual-time semantics of the execution engine."""

import numpy as np
import pytest

from repro.cluster import TCP_100MBIT, homogeneous_network, uniform_network
from repro.mpi import run_mpi


class TestComputeTime:
    def test_speed_determines_duration(self, pair_cluster):
        # machine 0: speed 100, machine 1: speed 50
        def app(env):
            env.compute(100.0)
            return env.wtime()

        res = run_mpi(app, pair_cluster)
        assert res.results[0] == pytest.approx(1.0)
        assert res.results[1] == pytest.approx(2.0)

    def test_compute_accumulates(self, pair_cluster):
        def app(env):
            env.compute(50.0)
            env.compute(50.0)
            return env.wtime()

        res = run_mpi(app, pair_cluster)
        assert res.results[0] == pytest.approx(1.0)

    def test_colocated_ranks_share_speed(self):
        cluster = uniform_network([100.0])

        def app(env):
            env.compute(100.0)
            return env.wtime()

        res = run_mpi(app, cluster, placement=[0, 0])
        # Two ranks share the machine: each runs at 50 units/s.
        assert res.results == [pytest.approx(2.0), pytest.approx(2.0)]

    def test_elapse_raw_seconds(self, pair_cluster):
        def app(env):
            env.elapse(0.25)
            return env.wtime()

        res = run_mpi(app, pair_cluster)
        assert res.results[0] == pytest.approx(0.25)


class TestTransferTime:
    def test_hockney_cost_charged_to_receiver(self, pair_cluster):
        nbytes = 1_000_000
        expected = TCP_100MBIT.latency + nbytes / TCP_100MBIT.bandwidth

        def app(env):
            c = env.comm_world
            if env.rank == 0:
                c.send(np.zeros(nbytes // 8), 1)
                return env.wtime()
            c.recv(0)
            return env.wtime()

        res = run_mpi(app, pair_cluster)
        # Sender pays only the latency; receiver sees the full transfer.
        assert res.results[0] == pytest.approx(TCP_100MBIT.latency)
        assert res.results[1] == pytest.approx(expected)

    def test_receiver_not_delayed_if_already_late(self, pair_cluster):
        def app(env):
            c = env.comm_world
            if env.rank == 0:
                c.send(np.zeros(10), 1)
                return None
            env.compute(500.0)  # 10s on speed-50 machine — long after arrival
            t_before = env.wtime()
            c.recv(0)
            return env.wtime() - t_before

        res = run_mpi(app, pair_cluster)
        assert res.results[1] == pytest.approx(0.0, abs=1e-12)

    def test_nbytes_override_charges_modelled_size(self, pair_cluster):
        def app(env):
            c = env.comm_world
            if env.rank == 0:
                c.send("tiny", 1, nbytes=12_500_000)  # modelled 1 second
                return None
            c.recv(0)
            return env.wtime()

        res = run_mpi(app, pair_cluster)
        assert res.results[1] == pytest.approx(1.0 + TCP_100MBIT.latency)

    def test_loopback_cheap_for_colocated(self):
        cluster = uniform_network([100.0])

        def app(env):
            c = env.comm_world
            if env.rank == 0:
                c.send(np.zeros(125_000), 1)  # 1 MB
                return None
            c.recv(0)
            return env.wtime()

        res = run_mpi(app, cluster, placement=[0, 0])
        # Over shm (1 GB/s) this is ~1 ms; over TCP it would be 80 ms.
        assert res.results[1] < 0.01

    @pytest.mark.parametrize("nbytes", [0, 1 << 10, 1 << 14, 1 << 17,
                                        1 << 20, 1 << 23])
    def test_pingpong_is_the_hockney_curve(self, nbytes):
        """Half a ping-pong is one Hockney transfer at every size: the
        substrate agrees with its own cost model."""
        def app(env):
            c = env.comm_world
            if env.rank == 0:
                t0 = env.wtime()
                c.send(b"", 1, tag=0, nbytes=nbytes)
                c.recv(1, tag=0)
                return (env.wtime() - t0) / 2
            c.recv(0, tag=0)
            c.send(b"", 0, tag=0, nbytes=nbytes)
            return None

        res = run_mpi(app, homogeneous_network(2))
        assert res.results[0] == pytest.approx(
            TCP_100MBIT.transfer_time(nbytes), rel=1e-9)

    def test_binomial_bcast_costs_ceil_log2_p_hops(self):
        hop = TCP_100MBIT.transfer_time(1 << 20)

        def app(env):
            c = env.comm_world
            c.barrier()
            t0 = env.wtime()
            c.bcast(b"" if env.rank == 0 else None, root=0, nbytes=1 << 20)
            c.barrier()
            return env.wtime() - t0

        for hops, p in enumerate((2, 4, 8, 16), start=1):
            res = run_mpi(app, homogeneous_network(p))
            # the barriers add latency-scale time only
            assert max(res.results) == pytest.approx(hops * hop, rel=0.05)


class TestOrdering:
    def test_non_overtaking_virtual_arrivals(self, pair_cluster):
        """A small message sent after a large one must not arrive earlier."""

        def app(env):
            c = env.comm_world
            if env.rank == 0:
                c.send(np.zeros(1_250_000), 1, tag=1)  # 10 MB ~ 0.8s
                c.send(np.zeros(1), 1, tag=2)          # tiny
                return None
            import repro.mpi as M

            st1 = M.Status()
            st2 = M.Status()
            c.recv(0, 1, status=st1)
            c.recv(0, 2, status=st2)
            return (st1.arrival_vtime, st2.arrival_vtime)

        res = run_mpi(app, pair_cluster)
        big, small = res.results[1]
        assert small >= big

    def test_parallel_pairs_do_not_contend(self):
        """Switched network: disjoint pairs transfer concurrently."""
        cluster = uniform_network([100.0, 100.0, 100.0, 100.0])
        nbytes = 12_500_000  # 1 second each

        def app(env):
            c = env.comm_world
            if env.rank in (0, 1):
                c.send(np.zeros(nbytes // 8), env.rank + 2)
                return None
            c.recv(env.rank - 2)
            return env.wtime()

        res = run_mpi(app, cluster)
        # Both transfers complete in ~1s, not 2s.
        assert res.results[2] == pytest.approx(1.0, rel=0.01)
        assert res.results[3] == pytest.approx(1.0, rel=0.01)


class TestMakespan:
    def test_makespan_is_last_finisher(self, pair_cluster):
        def app(env):
            env.compute(100.0 if env.rank == 0 else 10.0)
            return None

        res = run_mpi(app, pair_cluster)
        assert res.makespan == pytest.approx(1.0)  # rank 0: 100/100
