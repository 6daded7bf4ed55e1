"""The Timeof estimator: resource-clock semantics and engine agreement."""

import numpy as np
import pytest

from repro.cluster import TCP_100MBIT, paper_network, uniform_network
from repro.core.estimator import (
    estimate_breakdown,
    estimate_time,
    record_trace,
)
from repro.core.netmodel import NetworkModel
from repro.perfmodel.builder import CallableModel, MatrixModel
from repro.util.errors import HMPIError


def netmodel(cluster=None):
    cluster = cluster or uniform_network([100.0, 50.0, 25.0])
    return NetworkModel(cluster, list(range(cluster.size)))


class TestComputeOnly:
    def test_single_processor(self):
        nm = netmodel()
        model = MatrixModel([200.0], np.zeros((1, 1)))
        assert estimate_time(model, nm, [0]) == pytest.approx(2.0)

    def test_parallel_computes_take_max(self):
        nm = netmodel()
        model = MatrixModel([100.0, 100.0], np.zeros((2, 2)))
        # machine 0: 1s, machine 1: 2s -> makespan 2s
        assert estimate_time(model, nm, [0, 1]) == pytest.approx(2.0)

    def test_speed_sharing_on_colocation(self):
        nm = netmodel()
        model = MatrixModel([100.0, 100.0], np.zeros((2, 2)))
        # both on machine 0: each at 50 units/s -> 2s
        assert estimate_time(model, nm, [0, 0]) == pytest.approx(2.0)

    def test_mapping_length_checked(self):
        nm = netmodel()
        model = MatrixModel([1.0], np.zeros((1, 1)))
        with pytest.raises(HMPIError):
            estimate_time(model, nm, [0, 1])


class TestTransfers:
    def test_transfer_then_compute_chains(self):
        nm = netmodel()
        links = np.zeros((2, 2))
        links[0, 1] = 12_500_000.0  # 1 second over 100 Mbit

        def scheme(v):
            v.transfer(100.0, 0, 1)
            v.compute(100.0, 1)

        model = MatrixModel([0.0, 50.0], links, scheme=scheme)
        t = estimate_time(model, nm, [0, 1])
        # 1s transfer (+latency), then 50 units at 50/s = 1s
        assert t == pytest.approx(2.0 + TCP_100MBIT.latency, rel=1e-4)

    def test_parallel_transfers_distinct_pairs_overlap(self):
        nm = netmodel()
        links = np.zeros((3, 3))
        links[0, 1] = links[2, 1] = 12_500_000.0

        def scheme(v):
            v.transfer(100.0, 0, 1)
            v.transfer(100.0, 2, 1)

        model = MatrixModel([0.0, 0.0, 0.0], links, scheme=scheme)
        t = estimate_time(model, nm, [0, 1, 2])
        assert t == pytest.approx(1.0, rel=0.01)  # not 2.0

    def test_same_pair_transfers_serialise_on_link(self):
        nm = netmodel()
        links = np.zeros((2, 2))
        links[0, 1] = 12_500_000.0

        def scheme(v):
            v.transfer(50.0, 0, 1)
            v.transfer(50.0, 0, 1)

        model = MatrixModel([0.0, 0.0], links, scheme=scheme)
        t = estimate_time(model, nm, [0, 1])
        assert t == pytest.approx(1.0 + 2 * TCP_100MBIT.latency, rel=1e-3)

    def test_transfer_waits_for_sender_compute(self):
        nm = netmodel()
        links = np.zeros((2, 2))
        links[0, 1] = 12_500_000.0

        def scheme(v):
            v.compute(100.0, 0)      # 1s on machine 0
            v.transfer(100.0, 0, 1)  # departs at 1s, arrives ~2s

        model = MatrixModel([100.0, 0.0], links, scheme=scheme)
        assert estimate_time(model, nm, [0, 1]) == pytest.approx(2.0, rel=1e-3)

    def test_colocated_transfer_uses_loopback(self):
        nm = netmodel()
        links = np.zeros((2, 2))
        links[0, 1] = 12_500_000.0
        model = MatrixModel([0.0, 0.0], links)
        t = estimate_time(model, nm, [0, 0])
        assert t < 0.05  # shared memory, not 1s of TCP


class TestTraceReplay:
    def test_trace_cached_on_model(self):
        model = MatrixModel([1.0, 1.0], np.zeros((2, 2)))
        t1 = record_trace(model)
        t2 = record_trace(model)
        assert t1 is t2

    def test_replay_matches_direct_estimate(self):
        nm = NetworkModel(paper_network(), list(range(9)))
        rng = np.random.default_rng(0)
        node = rng.uniform(10, 100, size=5)
        links = rng.uniform(0, 1e6, size=(5, 5))
        np.fill_diagonal(links, 0)
        model = MatrixModel(node, links)
        machines = [0, 6, 7, 8, 3]
        # compiled-trace replay vs the TimelineVisitor scheme walk
        t = estimate_time(model, nm, machines)
        t2 = estimate_breakdown(model, nm, machines)["makespan"]
        assert t == pytest.approx(t2)

    def test_different_mappings_reuse_trace(self):
        nm = NetworkModel(paper_network(), list(range(9)))
        model = MatrixModel([50.0, 100.0], np.zeros((2, 2)))
        fast = estimate_time(model, nm, [6, 7])
        slow = estimate_time(model, nm, [8, 8])
        assert fast < slow


class TestBreakdown:
    def test_diagnostics(self):
        nm = netmodel()
        links = np.zeros((2, 2))
        links[0, 1] = 1000.0
        model = MatrixModel([100.0, 50.0], links)
        info = estimate_breakdown(model, nm, [0, 1])
        assert info["makespan"] == pytest.approx(max(info["clocks"]))
        assert info["transfer_bytes"] == pytest.approx(1000.0)
        assert info["actions"] == 3  # 1 transfer + 2 computes
        assert info["compute_seconds"][0] == pytest.approx(1.0)


class TestEngineAgreement:
    def test_prediction_matches_execution(self):
        """The estimator and the execution engine share a cost model: a
        program that performs exactly the modelled actions must take the
        predicted time."""
        from repro.mpi import run_mpi

        cluster = uniform_network([100.0, 50.0])
        nm = NetworkModel(cluster, [0, 1])
        nbytes = 2_500_000  # 0.2 s over TCP
        links = np.zeros((2, 2))
        links[0, 1] = nbytes

        def scheme(v):
            v.compute(100.0, 0)
            v.transfer(100.0, 0, 1)
            v.compute(100.0, 1)

        model = MatrixModel([70.0, 30.0], links, scheme=scheme)
        predicted = estimate_time(model, nm, [0, 1])

        def app(env):
            c = env.comm_world
            if env.rank == 0:
                env.compute(70.0)
                c.send(np.zeros(nbytes // 8), 1)
            else:
                c.recv(0)
                env.compute(30.0)
            return env.wtime()

        res = run_mpi(app, cluster)
        assert res.makespan == pytest.approx(predicted, rel=1e-6)
