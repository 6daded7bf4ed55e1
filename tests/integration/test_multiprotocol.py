"""Multi-protocol communication (the paper's first HNOC challenge)."""

import numpy as np
import pytest

from repro.cluster import multiprotocol_network, paper_network
from repro.mpi import run_mpi

from ..experiments import assert_table


class TestProtocolSelection:
    def test_fast_pair_transfers_faster(self):
        cluster = multiprotocol_network(fast_pairs=((0, 1),))
        nbytes = 12_500_000  # 1 s over TCP, 0.125 s over the fast transport

        def app(env):
            c = env.comm_world
            if env.rank == 0:
                c.send(np.zeros(nbytes // 8), 1)
                c.send(np.zeros(nbytes // 8), 2)
                return None
            if env.rank in (1, 2):
                c.recv(0)
                return env.wtime()
            return None

        res = run_mpi(app, cluster)
        assert res.results[1] < 0.2   # fast interconnect
        assert res.results[2] > 0.9   # plain TCP

    def test_pinning_disables_selection(self):
        cluster = multiprotocol_network(fast_pairs=((0, 1),))
        cluster.link(0, 1).pin("tcp-100mbit")
        nbytes = 12_500_000

        def app(env):
            c = env.comm_world
            if env.rank == 0:
                c.send(np.zeros(nbytes // 8), 1)
                return None
            if env.rank == 1:
                c.recv(0)
                return env.wtime()
            return None

        res = run_mpi(app, cluster)
        assert res.results[1] > 0.9

    def test_fastest_protocol_exchange_table(self):
        """Neighbour exchange along the fast pairs: per-message protocol
        selection against the same links pinned to TCP."""
        fast_pairs = ((0, 1), (2, 3), (6, 7))
        partners = {a: b for pair in fast_pairs for a, b in (pair, pair[::-1])}

        def exchange(env):
            partner = partners.get(env.rank)
            if partner is not None:
                payload = np.zeros(6_250_000 // 8)
                for k in range(4):
                    env.comm_world.sendrecv(payload, partner, k, partner, k)
            return env.wtime()

        multi = multiprotocol_network(fast_pairs=fast_pairs)
        pinned = multiprotocol_network(fast_pairs=fast_pairs)
        for i, j in fast_pairs:
            pinned.link(i, j).pin("tcp-100mbit")
        t_multi = run_mpi(exchange, multi).makespan
        t_tcp = run_mpi(exchange, pinned).makespan
        assert t_tcp / t_multi > 4.0
        assert_table("Multi-protocol links", [
            ["pinned to TCP (standard MPI)", t_tcp],
            ["fastest protocol per message", t_multi],
            ["ratio", t_tcp / t_multi],
        ])

    def test_small_messages_may_prefer_low_latency(self):
        """Per-message selection: the crossover depends on size."""
        cluster = multiprotocol_network(fast_pairs=((0, 1),))
        link = cluster.link(0, 1)
        small = link.protocol_for(1)
        large = link.protocol_for(10**8)
        # The fast transport has both lower latency and higher bandwidth in
        # the preset, so it wins everywhere.
        assert small.name == "fast"
        assert large.name == "fast"

    def test_estimator_sees_multiprotocol_gain(self):
        """Timeof must predict the benefit of the faster pair."""
        from repro.core.estimator import estimate_time
        from repro.core.netmodel import NetworkModel
        from repro.perfmodel import MatrixModel

        links = np.zeros((2, 2))
        links[0, 1] = 12_500_000.0
        model_multi = MatrixModel([0.0, 0.0], links)
        model_tcp = MatrixModel([0.0, 0.0], links)

        multi = multiprotocol_network(fast_pairs=((0, 1),))
        nm_multi = NetworkModel(multi, list(range(multi.size)))
        t_multi = estimate_time(model_multi, nm_multi, [0, 1])

        tcp = paper_network()
        nm_tcp = NetworkModel(tcp, list(range(tcp.size)))
        t_tcp = estimate_time(model_tcp, nm_tcp, [0, 1])

        assert t_multi < t_tcp / 4
