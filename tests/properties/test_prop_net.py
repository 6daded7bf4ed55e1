"""Differential properties of the reference evaluators.

The ``"net"`` evaluator (longest-path over the precomputed timing DAG)
must be **bitwise identical** to the production compiled-trace replay,
and both must match the ``"interp"`` evaluator (per-candidate scheme
re-interpretation) and the TimelineVisitor oracle to relative 1e-9 —
across random models, random clusters, single- and multi-port, scalar
and batched evaluation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.netmodel import NetworkModel
from repro.core.seleng import (
    InterpEvaluator,
    NetEvaluator,
    TraceEvaluator,
    make_evaluator,
)
from repro.util.errors import OptionError

from .test_prop_seleng import oracle_time, random_cluster, random_model

TOL = 1e-9


def _rel_close(a, b):
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


class TestNetBackendMatches:
    @given(
        seed=st.integers(0, 2**31 - 1),
        nproc=st.integers(1, 6),
        kind=st.integers(0, 2),
        single_port=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_net_bitwise_equals_trace(self, seed, nproc, kind, single_port):
        rng = np.random.default_rng(seed)
        cluster = random_cluster(rng, kind, single_port)
        netmodel = NetworkModel(cluster, list(range(cluster.size)))
        model = random_model(rng, nproc)
        trace = TraceEvaluator(model, netmodel)
        net = NetEvaluator(model, netmodel)

        mappings = [
            tuple(int(m) for m in rng.integers(0, cluster.size, size=nproc))
            for _ in range(4)
        ]
        for mapping in mappings:
            assert net.evaluate(mapping) == trace.evaluate(mapping)
        assert np.array_equal(
            net.evaluate_batch(mappings), trace.evaluate_batch(mappings)
        )

    @given(
        seed=st.integers(0, 2**31 - 1),
        nproc=st.integers(1, 5),
        kind=st.integers(0, 2),
        single_port=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_net_matches_interp_and_oracle(self, seed, nproc, kind,
                                           single_port):
        rng = np.random.default_rng(seed)
        cluster = random_cluster(rng, kind, single_port)
        netmodel = NetworkModel(cluster, list(range(cluster.size)))
        model = random_model(rng, nproc)
        net = NetEvaluator(model, netmodel)
        interp = InterpEvaluator(model, netmodel)

        for _ in range(3):
            mapping = tuple(
                int(m) for m in rng.integers(0, cluster.size, size=nproc)
            )
            n = net.evaluate(mapping)
            assert _rel_close(n, interp.evaluate(mapping))
            assert _rel_close(n, oracle_time(model, netmodel, mapping))

    @given(seed=st.integers(0, 2**31 - 1), nproc=st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_timing_dag_is_cached_per_model(self, seed, nproc):
        rng = np.random.default_rng(seed)
        cluster = random_cluster(rng, 0, True)
        netmodel = NetworkModel(cluster, list(range(cluster.size)))
        model = random_model(rng, nproc)
        a = NetEvaluator(model, netmodel)
        b = NetEvaluator(model, netmodel)
        assert a._dag is b._dag  # one DAG per (model, shape)


class TestMakeEvaluator:
    def test_backend_registry(self):
        rng = np.random.default_rng(0)
        cluster = random_cluster(rng, 0, True)
        netmodel = NetworkModel(cluster, list(range(cluster.size)))
        model = random_model(rng, 3)
        assert type(make_evaluator(model, netmodel)) is TraceEvaluator
        assert type(make_evaluator(model, netmodel, None, "trace")) is TraceEvaluator
        assert type(make_evaluator(model, netmodel, None, "net")) is NetEvaluator
        assert type(make_evaluator(model, netmodel, None, "interp")) is InterpEvaluator
        with np.testing.assert_raises(OptionError):
            make_evaluator(model, netmodel, None, "bogus")
