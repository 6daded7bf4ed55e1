"""Net-schedule export: predicted traces through the existing pipeline."""

import numpy as np
import pytest

from repro.apps.em3d import bind_em3d_model, generate_problem
from repro.apps.jacobi import bind_jacobi_model
from repro.apps.matmul import bind_matmul_model, heterogeneous_distribution
from repro.cluster import paper_network
from repro.core.estimator import estimate_time
from repro.core.netmodel import NetworkModel
from repro.core.seleng import NetEvaluator, TraceEvaluator, compile_trace
from repro.obs import net_chrome_trace, schedule_net, validate_chrome_trace
from repro.perfmodel.net import lower_model
from repro.util.gantt import render_gantt, utilization


@pytest.fixture
def setup():
    p, k, n = 4, 100, 64
    bound = bind_jacobi_model(p, k, n, [n // p] * p)
    cluster = paper_network()
    netmodel = NetworkModel(cluster, list(range(cluster.size)))
    return bound, netmodel, [0, 1, 2, 3]


def _em3d():
    return bind_em3d_model(generate_problem(p=5, total_nodes=600, seed=3), 10)


def _matmul():
    dist = heterogeneous_distribution(
        n=12, l=6, speeds=np.array([[4.0, 1.0], [2.0, 3.0]]))
    return bind_matmul_model(dist, r=8)


def assert_every_pricer_agrees(bound, netmodel, machines):
    """The one net sweep, pinned from both of its callers: the exported
    schedule and the reference evaluator agree bitwise with the
    production trace replay and ``estimate_time``."""
    want = estimate_time(bound, netmodel, machines)
    assert schedule_net(bound, netmodel, machines).makespan() == want
    assert NetEvaluator(bound, netmodel).evaluate(machines) == want
    assert TraceEvaluator(bound, netmodel).evaluate(machines) == want
    # schedule_net labels event i with kept transition i, so the two
    # lowerings must list the same events in the same order.
    assert [(e.is_transfer, e.a, e.b if e.is_transfer else 0)
            for e in lower_model(bound).kept] \
        == [op[:3] for op in compile_trace(bound).ops]


class TestScheduleNet:
    def test_makespan_bitwise_matches_evaluator(self, setup):
        assert_every_pricer_agrees(*setup)

    @pytest.mark.parametrize("build", [_em3d, _matmul])
    def test_makespan_bitwise_on_paper_apps(self, build):
        bound = build()
        cluster = paper_network()
        netmodel = NetworkModel(cluster, list(range(cluster.size)))
        machines = [(3 * i + 1) % cluster.size for i in range(bound.nproc)]
        assert_every_pricer_agrees(bound, netmodel, machines)

    def test_one_lane_per_abstract_processor(self, setup):
        bound, netmodel, machines = setup
        tracer = schedule_net(bound, netmodel, machines)
        assert tracer.nranks() == bound.nproc
        for rank in range(bound.nproc):
            assert tracer.of_rank(rank), f"processor {rank} has no events"

    def test_transfers_appear_on_both_endpoints(self, setup):
        bound, netmodel, machines = setup
        tracer = schedule_net(bound, netmodel, machines)
        sends = tracer.by_kind("send")
        recvs = tracer.by_kind("recv")
        assert sends and len(sends) == len(recvs)
        assert all(e.label for e in sends)  # transition labels carried

    def test_feeds_existing_gantt_pipeline(self, setup):
        bound, netmodel, machines = setup
        tracer = schedule_net(bound, netmodel, machines)
        chart = render_gantt(tracer, width=40)
        assert "rank  0" in chart and "#" in chart
        assert 0.0 < utilization(tracer, 0) <= 1.0


class TestNetChromeTrace:
    def test_document_validates(self, setup):
        bound, netmodel, machines = setup
        doc = net_chrome_trace(bound, netmodel, machines)
        assert validate_chrome_trace(doc) == []
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])

    def test_metadata_carries_net_shape(self, setup):
        bound, netmodel, machines = setup
        doc = net_chrome_trace(bound, netmodel, machines,
                               metadata={"note": "test"})
        meta = doc["metadata"] if "metadata" in doc else doc.get("otherData")
        assert meta["exporter"] == "repro.obs.netexport"
        assert meta["transitions"] > 0 and meta["places"] > 0
        assert meta["note"] == "test"
