"""The annealing mapper's accepted trajectory is pinned to a reference loop.

:func:`reference_select` is the search loop of
:meth:`repro.core.samapper.AnnealingMapper.select` as it stood before the
mapper kept a machine list beside its assignment: every trial re-maps
every slot through ``netmodel.machine_of`` and rebuilds the unused pool
from scratch.  The production loop must draw the same random numbers in
the same order, so it must accept the same moves and return the same
mapping, bit for bit, with the same evaluation count.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import paper_network
from repro.cluster.presets import multiprotocol_network
from repro.core.mapper import GreedyMapper, Mapping, _check_inputs
from repro.core.netmodel import NetworkModel
from repro.core.samapper import START_TEMP_FRACTION, AnnealingMapper
from repro.core.seleng import SelectionStats, TraceEvaluator
from repro.perfmodel.builder import MatrixModel
from repro.util.rng import make_rng


def reference_select(mapper, model, netmodel, candidates, fixed=None, *,
                     stats=None):
    """The reference annealing loop (kept verbatim; do not optimise)."""
    fixed = dict(fixed or {})
    _check_inputs(model, candidates, fixed)
    rng = make_rng(mapper.rng_seed)
    n = model.nproc
    pinned = set(fixed)
    movable = [i for i in range(n) if i not in pinned]

    current = GreedyMapper().select(
        model, netmodel, candidates, fixed, stats=stats
    )
    best = current
    evaluator = TraceEvaluator(model, netmodel, stats)
    if not movable:
        return best

    temp = max(current.time * START_TEMP_FRACTION, 1e-12)
    cooling = (1e-3) ** (1.0 / max(mapper.moves, 1))
    assignment = list(current.processes)
    current_time = current.time

    for _ in range(mapper.moves):
        trial = list(assignment)
        used = set(trial)
        unused = [c for c in candidates if c not in used]
        # swap two movable slots, or move one slot to an unused process
        if unused and rng.random() < 0.5:
            i = movable[int(rng.integers(len(movable)))]
            trial[i] = unused[int(rng.integers(len(unused)))]
        elif len(movable) >= 2:
            i, j = rng.choice(len(movable), size=2, replace=False)
            a, b = movable[int(i)], movable[int(j)]
            trial[a], trial[b] = trial[b], trial[a]
        else:
            continue
        trial_machines = tuple(netmodel.machine_of(p) for p in trial)
        t_trial = evaluator.evaluate(trial_machines)
        accept = t_trial <= current_time or (
            rng.random() < math.exp((current_time - t_trial) / temp)
        )
        if accept:
            assignment = trial
            current_time = t_trial
            if t_trial < best.time:
                best = Mapping(tuple(trial), trial_machines, t_trial)
        temp *= cooling
    return best


def random_model(rng, nproc):
    node = rng.uniform(1.0, 80.0, size=nproc)
    links = rng.uniform(0.0, 4e6, size=(nproc, nproc))
    links[rng.uniform(size=(nproc, nproc)) < 0.3] = 0.0
    np.fill_diagonal(links, 0.0)
    return MatrixModel(node, links)


def assert_same_trajectory(seed, nproc, pool_extra, npinned, moves, rng_seed,
                           multiprotocol):
    rng = np.random.default_rng(seed)
    cluster = multiprotocol_network() if multiprotocol else paper_network()
    # More processes than machines, so a process is not its machine.
    nprocs = nproc + pool_extra
    placement = rng.integers(0, cluster.size, size=max(nprocs, 1)).tolist()
    netmodel = NetworkModel(cluster, placement)
    model = random_model(rng, nproc)
    candidates = rng.permutation(nprocs)[:nprocs].tolist()
    slots = rng.permutation(nproc)[:min(npinned, nproc)].tolist()
    fixed = dict(zip(slots, rng.permutation(candidates)[:len(slots)].tolist()))

    mapper = AnnealingMapper(moves=moves, rng_seed=rng_seed)
    want_stats, got_stats = SelectionStats(), SelectionStats()
    want = reference_select(mapper, model, netmodel, candidates, fixed,
                            stats=want_stats)
    got = mapper.select(model, netmodel, candidates, fixed, stats=got_stats)
    assert got.processes == want.processes
    assert got.machines == want.machines
    assert got.time == want.time
    assert got_stats.evaluations == want_stats.evaluations


TRAJECTORY = dict(
    seed=st.integers(0, 2**31 - 1),
    nproc=st.integers(1, 6),
    pool_extra=st.integers(0, 5),
    npinned=st.integers(0, 6),
    moves=st.integers(0, 60),
    rng_seed=st.integers(0, 2**16),
    multiprotocol=st.booleans(),
)


@given(**TRAJECTORY)
@example(seed=1, nproc=4, pool_extra=3, npinned=0, moves=0, rng_seed=0,
         multiprotocol=False)                     # no moves at all
@example(seed=2, nproc=4, pool_extra=3, npinned=4, moves=30, rng_seed=5,
         multiprotocol=False)                     # every slot pinned
@example(seed=3, nproc=3, pool_extra=0, npinned=2, moves=30, rng_seed=9,
         multiprotocol=True)                      # one slot, nothing unused
@settings(max_examples=40, deadline=None)
def test_trajectory_matches_reference(**kw):
    assert_same_trajectory(**kw)


@pytest.mark.slow
@given(**TRAJECTORY)
@settings(max_examples=400, deadline=None)
def test_trajectory_matches_reference_deep(**kw):
    assert_same_trajectory(**kw)
