"""Property-based tests pinning the exhaustive mapper's class walk.

:func:`repro.core.mapper._class_representatives` visits one permutation
per class signature directly.  The algorithm it replaced — filter
``itertools.permutations`` by first-seen signature — lives on here as the
oracle: same representatives, same order, so batches, ``argmin`` ties and
the chosen mapping cannot move.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import two_site_network, uniform_network
from repro.core.mapper import ExhaustiveMapper, _class_representatives
from repro.core.netmodel import NetworkModel
from repro.core.seleng import SelectionStats, evaluate_mappings
from repro.perfmodel.builder import MatrixModel


def first_seen(pool, labels, k):
    """The reference: filter all k-permutations by label signature."""
    label_of = dict(zip(pool, labels))
    seen = set()
    for combo in itertools.permutations(pool, k):
        signature = tuple(label_of[p] for p in combo)
        if signature not in seen:
            seen.add(signature)
            yield combo


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), with_parent=st.booleans())
def test_walk_matches_first_seen_filter(seed, with_parent):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 8))
    candidates = rng.permutation(20)[:size].tolist()
    pins = set(candidates[: int(rng.integers(0, min(size, 3)))])
    pool = [c for c in candidates if c not in pins]
    speeds = rng.choice([46.0, 106.0, 176.0], size=len(pool)).tolist()
    parents = (
        [(0, int(s)) for s in rng.integers(0, 2, size=len(pool))]
        if with_parent else [None] * len(pool)
    )
    labels = list(zip(speeds, parents))
    k = int(rng.integers(0, len(pool) + 1))
    assert (list(_class_representatives(pool, labels, k))
            == list(first_seen(pool, labels, k)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_distinct_classes_enumerate_every_permutation(seed):
    rng = np.random.default_rng(seed)
    pool = rng.permutation(30)[: int(rng.integers(0, 7))].tolist()
    k = int(rng.integers(0, len(pool) + 1))
    assert (list(_class_representatives(pool, pool, k))
            == list(itertools.permutations(pool, k)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), topology=st.booleans())
def test_mapper_prices_exactly_the_reference_representatives(seed, topology):
    """End to end: the labels ``select`` derives from speeds (and topology
    parents), pins included, pick the mapping the old filter picked."""
    rng = np.random.default_rng(seed)
    if topology:
        cluster = two_site_network(machines_per_site=3)
    else:
        cluster = uniform_network(
            rng.choice([46.0, 106.0, 176.0], size=6).tolist())
    netmodel = NetworkModel(cluster, list(range(cluster.size)))
    nproc = int(rng.integers(2, 5))
    links = rng.uniform(1e3, 1e6, size=(nproc, nproc))
    np.fill_diagonal(links, 0.0)
    model = MatrixModel(rng.uniform(10.0, 100.0, size=nproc), links)
    candidates = list(range(cluster.size))
    fixed = {int(rng.integers(nproc)): int(rng.integers(cluster.size))}

    pool = [c for c in candidates if c not in fixed.values()]
    topo = cluster.topology
    labels = [
        (netmodel.speed_of_machine(m), topo.parent_key(m) if topo else None)
        for m in pool
    ]
    free = [i for i in range(nproc) if i not in fixed]
    expected = []
    for combo in first_seen(pool, labels, len(free)):
        procs = [0] * nproc
        for slot, proc in [*fixed.items(), *zip(free, combo)]:
            procs[slot] = proc
        expected.append(tuple(procs))
    times = evaluate_mappings(model, netmodel, expected)
    best = int(np.argmin(times))

    stats = SelectionStats()
    got = ExhaustiveMapper().select(
        model, netmodel, candidates, fixed, stats=stats)
    assert got.processes == expected[best]
    assert got.time == float(times[best])
    assert stats.evaluations == len(expected)
    assert (stats.evaluations + stats.symmetry_skips
            == math.perm(len(pool), len(free)))
