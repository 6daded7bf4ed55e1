"""Simulated-annealing mapper — for instances where local search stalls.

The default greedy+refine mapper is a hill climber: on communication-heavy
models with rugged objective landscapes it can stop in a local optimum.
Simulated annealing escapes by occasionally accepting worse mappings, with
a temperature schedule calibrated to the seed mapping's predicted time.
Fully deterministic given its seed.

Quality is validated against the exhaustive oracle in the tests; cost is
``moves`` estimator evaluations over the cached trace.  The loop keeps the
current mapping both as processes and as machines, so a trial edits one
or two slots of each, and it rebuilds the pool of unused processes only
after an accepted move to one; the random draws, and so the accepted
trajectory, are those of the plain loop that re-maps every slot (pinned
by ``tests/properties/test_prop_samapper.py``).
"""

from __future__ import annotations

import math
from collections.abc import Mapping as MappingABC
from collections.abc import Sequence

from ..perfmodel.model import AbstractBoundModel
from ..util.rng import make_rng
from .mapper import (
    GreedyMapper,
    Mapper,
    Mapping,
    _check_inputs,
    register_mapper,
)
from .netmodel import NetworkModel
from .seleng import SelectionStats, TraceEvaluator

__all__ = ["AnnealingMapper"]

#: Initial temperature as a fraction of the seed mapping's predicted time.
START_TEMP_FRACTION = 0.2


class AnnealingMapper(Mapper):
    """Simulated annealing over swap/move neighbourhoods.

    The greedy mapping seeds the walk.  The initial temperature is
    :data:`START_TEMP_FRACTION` of its predicted time, cooled
    geometrically to ~1e-3 of that over the budget.

    Parameters
    ----------
    moves:
        Total candidate evaluations (the budget).
    rng_seed:
        Determinism knob.
    """

    def __init__(self, moves: int = 400, rng_seed: int = 0):
        self.moves = moves
        self.rng_seed = rng_seed

    def select(
        self,
        model: AbstractBoundModel,
        netmodel: NetworkModel,
        candidates: Sequence[int],
        fixed: MappingABC[int, int] | None = None,
        *,
        stats: SelectionStats | None = None,
    ) -> Mapping:
        fixed = dict(fixed or {})
        _check_inputs(model, candidates, fixed)
        rng = make_rng(self.rng_seed)
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
        cooling = (1e-3) ** (1.0 / max(self.moves, 1))
        machine_of = netmodel.machine_of
        # The current mapping as processes and as machines: a trial edits
        # one or two slots of each instead of re-mapping every slot.
        assignment = list(current.processes)
        machines = [machine_of(p) for p in assignment]
        current_time = current.time
        used = set(assignment)
        unused = [c for c in candidates if c not in used]

        for _ in range(self.moves):
            trial = list(assignment)
            trial_machines = list(machines)
            # swap two movable slots, or move one slot to an unused process
            moved = bool(unused) and rng.random() < 0.5
            if moved:
                i = movable[int(rng.integers(len(movable)))]
                proc = unused[int(rng.integers(len(unused)))]
                trial[i] = proc
                trial_machines[i] = machine_of(proc)
            elif len(movable) >= 2:
                i, j = rng.choice(len(movable), size=2, replace=False)
                a, b = movable[int(i)], movable[int(j)]
                trial[a], trial[b] = trial[b], trial[a]
                trial_machines[a], trial_machines[b] = (
                    trial_machines[b], trial_machines[a])
            else:
                continue
            t_trial = evaluator.evaluate(trial_machines)
            accept = t_trial <= current_time or (
                rng.random() < math.exp((current_time - t_trial) / temp)
            )
            if accept:
                assignment = trial
                machines = trial_machines
                current_time = t_trial
                if moved:  # a swap leaves the set of used processes as is
                    used = set(assignment)
                    unused = [c for c in candidates if c not in used]
                if t_trial < best.time:
                    best = Mapping(tuple(trial), tuple(trial_machines), t_trial)
            temp *= cooling
        return best


register_mapper("anneal", AnnealingMapper, overwrite=True)
