"""Property-based tests pinning the selection engine to the estimator.

:class:`repro.core.estimator.TimelineVisitor` is the semantic oracle for
predicted execution times; the compiled engine in :mod:`repro.core.seleng`
must reproduce it **bitwise** on every candidate mapping — the fused
scalar replay, the batched-scalar path, the vectorised path and the
reference :class:`~repro.core.seleng.NetEvaluator` alike — across
single-port clusters, multi-protocol links (free and pinned), co-locating
mappings, and degenerate (zero-volume) models.  This one-oracle property
is what pins the production replay; there is no second copy of it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import paper_network, uniform_network
from repro.cluster.presets import multiprotocol_network
from repro.core.estimator import (
    TimelineVisitor,
    _effective_speeds,
    estimate_time,
)
from repro.core.netmodel import NetworkModel
from repro.core.seleng import (
    BATCH_VECTOR_THRESHOLD,
    NetEvaluator,
    TraceEvaluator,
    evaluate_mappings,
)
from repro.perfmodel.builder import MatrixModel

#: ``random_cluster`` kinds: paper, multi-protocol, random uniform, and
#: multi-protocol with every link pinned to TCP.
KINDS = st.integers(0, 3)


def oracle_time(model, netmodel, machines):
    """Predicted makespan straight from the TimelineVisitor."""
    visitor = TimelineVisitor(
        model.node_volumes(),
        model.link_volumes(),
        _effective_speeds(netmodel, machines),
        netmodel,
        machines,
    )
    model.walk_scheme(visitor)
    return visitor.makespan


def random_model(rng, nproc):
    """A MatrixModel with random volumes and a random interleaved scheme."""
    node = rng.uniform(0.0, 200.0, size=nproc)
    links = rng.uniform(0.0, 5e5, size=(nproc, nproc))
    # Sprinkle zero-byte pairs so dropped transfers are exercised.
    links[rng.uniform(size=(nproc, nproc)) < 0.3] = 0.0
    np.fill_diagonal(links, 0.0)

    actions = []
    for _ in range(rng.integers(1, 30)):
        pct = float(rng.uniform(0.0, 60.0))
        if rng.uniform() < 0.4 or nproc == 1:
            actions.append(("compute", pct, int(rng.integers(nproc)), 0))
        else:
            src = int(rng.integers(nproc))
            dst = int(rng.integers(nproc))
            actions.append(("transfer", pct, src, dst))

    def scheme(visitor):
        for kind, pct, a, b in actions:
            if kind == "compute":
                visitor.compute(pct, a)
            else:
                visitor.transfer(pct, a, b)

    return MatrixModel(node, links, scheme=scheme)


def random_cluster(rng, kind, single_port):
    if kind == 0:
        cluster = paper_network()
    elif kind == 1:
        cluster = multiprotocol_network()
    elif kind == 3:
        cluster = multiprotocol_network()
        cluster.pin_all("tcp-100mbit")
    else:
        speeds = rng.uniform(5.0, 300.0, size=rng.integers(2, 7)).tolist()
        cluster = uniform_network(speeds)
    cluster.single_port = single_port
    return cluster


def assert_scalar_paths_match_oracle(seed, nproc, kind, single_port):
    rng = np.random.default_rng(seed)
    cluster = random_cluster(rng, kind, single_port)
    netmodel = NetworkModel(cluster, list(range(cluster.size)))
    model = random_model(rng, nproc)
    evaluator = TraceEvaluator(model, netmodel)
    reference = NetEvaluator(model, netmodel)

    mappings = [
        tuple(int(m) for m in rng.integers(0, cluster.size, size=nproc))
        for _ in range(4)
    ]
    expected = [oracle_time(model, netmodel, m) for m in mappings]

    for mapping, want in zip(mappings, expected):
        assert evaluator.evaluate(mapping) == want
        assert reference.evaluate(mapping) == want
    assert evaluator.evaluate_batch(mappings).tolist() == expected


def assert_vectorised_matches_oracle(seed, nproc, kind, single_port):
    rng = np.random.default_rng(seed)
    cluster = random_cluster(rng, kind, single_port)
    netmodel = NetworkModel(cluster, list(range(cluster.size)))
    model = random_model(rng, nproc)

    nbatch = BATCH_VECTOR_THRESHOLD + 5
    mappings = [
        tuple(int(m) for m in rng.integers(0, cluster.size, size=nproc))
        for _ in range(nbatch)
    ]
    times = evaluate_mappings(model, netmodel, mappings)
    assert times.shape == (nbatch,)
    assert times.tolist() == [oracle_time(model, netmodel, m)
                              for m in mappings]


ORACLE_CASES = dict(
    seed=st.integers(0, 2**31 - 1),
    nproc=st.integers(1, 6),
    kind=KINDS,
    single_port=st.booleans(),
)
VECTOR_CASES = dict(ORACLE_CASES, nproc=st.integers(1, 5))


class TestEngineMatchesOracle:
    @given(**ORACLE_CASES)
    @settings(max_examples=60, deadline=None)
    def test_scalar_and_small_batch(self, seed, nproc, kind, single_port):
        assert_scalar_paths_match_oracle(seed, nproc, kind, single_port)

    @given(**VECTOR_CASES)
    @settings(max_examples=25, deadline=None)
    def test_vectorised_batch(self, seed, nproc, kind, single_port):
        """Batches above the vectorisation threshold agree event-for-event."""
        assert_vectorised_matches_oracle(seed, nproc, kind, single_port)

    @given(seed=st.integers(0, 2**31 - 1), nproc=st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_colocated_mappings(self, seed, nproc):
        """Speed sharing: everyone on one machine still matches the oracle."""
        rng = np.random.default_rng(seed)
        cluster = paper_network()
        netmodel = NetworkModel(cluster, list(range(cluster.size)))
        model = random_model(rng, nproc)
        machine = int(rng.integers(cluster.size))
        mapping = tuple([machine] * nproc)
        want = oracle_time(model, netmodel, mapping)
        assert estimate_time(model, netmodel, mapping) == want

    @given(seed=st.integers(0, 2**31 - 1), nproc=st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_zero_volume_model(self, seed, nproc):
        """All-zero volumes predict zero time on every path."""
        rng = np.random.default_rng(seed)
        cluster = multiprotocol_network()
        netmodel = NetworkModel(cluster, list(range(cluster.size)))
        model = MatrixModel(np.zeros(nproc), np.zeros((nproc, nproc)))
        mapping = tuple(
            int(m) for m in rng.integers(0, cluster.size, size=nproc)
        )
        want = oracle_time(model, netmodel, mapping)
        assert estimate_time(model, netmodel, mapping) == want
        times = evaluate_mappings(model, netmodel, [mapping] * 3)
        assert times.tolist() == [want] * 3


@pytest.mark.slow
@given(**ORACLE_CASES)
@settings(max_examples=600, deadline=None)
def test_scalar_and_small_batch_deep(seed, nproc, kind, single_port):
    assert_scalar_paths_match_oracle(seed, nproc, kind, single_port)


@pytest.mark.slow
@given(**VECTOR_CASES)
@settings(max_examples=250, deadline=None)
def test_vectorised_batch_deep(seed, nproc, kind, single_port):
    assert_vectorised_matches_oracle(seed, nproc, kind, single_port)
