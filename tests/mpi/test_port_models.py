"""Single-port vs multi-port network models and broadcast algorithms."""

import pytest

from repro.cluster import TCP_100MBIT, Cluster, Machine, uniform_network
from repro.mpi import run_mpi
from repro.util.errors import MPICommError

from ..experiments import assert_table


def single_port_network(n, speed=100.0):
    return Cluster([Machine(f"sp{i:02d}", speed) for i in range(n)],
                   single_port=True)


NBYTES = 12_500_000  # 1 second over 100 Mbit
HOP = TCP_100MBIT.transfer_time(NBYTES)


class TestSenderOccupancy:
    def test_multi_port_sends_overlap(self):
        cluster = uniform_network([100.0] * 3)

        def app(env):
            c = env.comm_world
            if env.rank == 0:
                c.send(b"", 1, tag=0, nbytes=NBYTES)
                c.send(b"", 2, tag=0, nbytes=NBYTES)
                return env.wtime()
            c.recv(0, 0)
            return env.wtime()

        res = run_mpi(app, cluster)
        assert res.results[0] < 0.01            # sender returns immediately
        assert res.results[1] == pytest.approx(HOP, rel=1e-3)
        assert res.results[2] == pytest.approx(HOP, rel=1e-3)

    def test_single_port_sends_serialise(self):
        cluster = single_port_network(3)

        def app(env):
            c = env.comm_world
            if env.rank == 0:
                c.send(b"", 1, tag=0, nbytes=NBYTES)
                c.send(b"", 2, tag=0, nbytes=NBYTES)
                return env.wtime()
            c.recv(0, 0)
            return env.wtime()

        res = run_mpi(app, cluster)
        assert res.results[0] == pytest.approx(2 * HOP, rel=1e-3)
        assert res.results[1] == pytest.approx(HOP, rel=1e-3)
        assert res.results[2] == pytest.approx(2 * HOP, rel=1e-3)

    def test_estimator_matches_single_port_engine(self):
        import numpy as np

        from repro.core.estimator import estimate_time
        from repro.core.netmodel import NetworkModel
        from repro.perfmodel.builder import MatrixModel

        cluster = single_port_network(3)
        nm = NetworkModel(cluster, [0, 1, 2])
        links = np.zeros((3, 3))
        links[0, 1] = links[0, 2] = NBYTES

        def scheme(v):
            v.transfer(100.0, 0, 1)
            v.transfer(100.0, 0, 2)

        model = MatrixModel([0.0, 0.0, 0.0], links, scheme=scheme)
        predicted = estimate_time(model, nm, [0, 1, 2])

        def app(env):
            c = env.comm_world
            if env.rank == 0:
                c.send(b"", 1, tag=0, nbytes=NBYTES)
                c.send(b"", 2, tag=0, nbytes=NBYTES)
            else:
                c.recv(0, 0)
            return env.wtime()

        res = run_mpi(app, cluster)
        assert max(res.results) == pytest.approx(predicted, rel=1e-9)


class TestBcastAlgorithms:
    @pytest.mark.parametrize("algorithm", ["binomial", "flat", "chain"])
    @pytest.mark.parametrize("size", [1, 2, 5, 8])
    def test_all_algorithms_correct(self, algorithm, size):
        from repro.cluster import homogeneous_network

        def app(env):
            value = {"data": 42} if env.rank == 0 else None
            return env.comm_world.bcast(value, root=0, algorithm=algorithm)

        res = run_mpi(app, homogeneous_network(size))
        assert res.results == [{"data": 42}] * size

    def test_nonzero_root_all_algorithms(self):
        from repro.cluster import homogeneous_network

        for algorithm in ("binomial", "flat", "chain"):
            def app(env, alg=algorithm):
                value = "x" if env.rank == 2 else None
                return env.comm_world.bcast(value, root=2, algorithm=alg)

            res = run_mpi(app, homogeneous_network(4))
            assert res.results == ["x"] * 4

    def test_unknown_algorithm(self):
        from repro.cluster import homogeneous_network

        def app(env):
            with pytest.raises(MPICommError):
                env.comm_world.bcast(1, algorithm="quantum")
            return True

        run_mpi(app, homogeneous_network(2))

    def test_flat_beats_binomial_on_switched_network(self):
        """Contention-free network: the flat fan-out is one hop."""
        from repro.cluster import homogeneous_network

        def timed(algorithm):
            def app(env):
                env.comm_world.bcast(b"" if env.rank == 0 else None,
                                     root=0, nbytes=NBYTES,
                                     algorithm=algorithm)
                env.comm_world.barrier()
                return env.wtime()

            return max(run_mpi(app, homogeneous_network(8)).results)

        assert timed("flat") < timed("binomial")

    def test_binomial_beats_flat_under_single_port(self):
        """Single-port root serialises the flat fan-out; the tree spreads
        the sending over the ranks that already have the data."""

        def timed(algorithm):
            def app(env):
                env.comm_world.bcast(b"" if env.rank == 0 else None,
                                     root=0, nbytes=NBYTES,
                                     algorithm=algorithm)
                env.comm_world.barrier()
                return env.wtime()

            return max(run_mpi(app, single_port_network(8)).results)

        assert timed("binomial") < timed("flat")

    def test_best_algorithm_flips_with_the_port_model(self):
        """EXPERIMENTS.md's broadcast x port-model table: 6.25 MB to 8
        ranks, flat wins on the switch and the binomial tree under
        single-port."""
        algorithms = ("flat", "binomial", "chain")

        def timed(single_port, algorithm):
            def app(env):
                env.comm_world.bcast(b"" if env.rank == 0 else None,
                                     root=0, nbytes=6_250_000,
                                     algorithm=algorithm)
                env.comm_world.barrier()
                return env.wtime()

            cluster = Cluster([Machine(f"n{i:02d}", 100.0) for i in range(8)],
                              single_port=single_port)
            return max(run_mpi(app, cluster).results)

        switched = [timed(False, a) for a in algorithms]
        single = [timed(True, a) for a in algorithms]
        assert_table("Broadcast algorithm", [
            ["switched (paper's testbed)", *switched],
            ["single-port", *single],
        ])
        assert switched[0] < switched[1] < switched[2]
        assert single[1] < single[0]
        assert switched.index(min(switched)) != single.index(min(single))
