"""Process-selection algorithms — the heart of ``HMPI_Group_create``.

Given a bound performance model, the network model, and the set of
available world processes (the parent plus all free processes), a mapper
chooses which process runs each abstract processor so that the *predicted*
execution time is minimal.  Candidates are priced by the compiled
selection engine (:mod:`repro.core.seleng`), which replays the model's
trace from precompiled event arrays and amortises setup across whole
neighbourhoods; :class:`repro.core.estimator.TimelineVisitor` remains the
semantic oracle the engine is pinned to.  The paper defers the selection
algorithms to the mpC runtime [7]; we provide:

- :class:`ExhaustiveMapper` — optimal by enumeration, with optional
  machine-speed symmetry reduction; the oracle used in tests.
- :class:`GreedyMapper` — LPT-style: largest computation volumes onto the
  machines that finish them soonest, with speed sharing.  Fast,
  communication-blind.
- :class:`RefineMapper` — hill-climbing over swaps/moves evaluated with the
  full estimator (communication-aware), seeded by another mapper.
- :class:`DefaultMapper` — greedy seed + refinement; what the HMPI runtime
  uses unless told otherwise.

Every entry point that takes a mapper also accepts its **registry
string** — ``"greedy"``, ``"refine"``, ``"exhaustive"``, ``"anneal"``,
``"default"`` — resolved by :func:`resolve_mapper`.  String specs resolve
to shared default-configured instances (so the runtime's selection cache
can key on mapper identity); pass an instance for custom parameters, and
:func:`register_mapper` to add project-specific strategies.

A mapping may pin abstract processors to specific processes via ``fixed`` —
the runtime pins the model's ``parent`` to the calling host so that "every
newly created group has exactly one process shared with already existing
groups".
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import Counter
from collections.abc import Callable
from collections.abc import Mapping as MappingABC
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..perfmodel.model import AbstractBoundModel
from ..util.errors import MappingError
from .netmodel import NetworkModel
from .seleng import SelectionStats, TraceEvaluator

__all__ = [
    "Mapping",
    "Mapper",
    "ExhaustiveMapper",
    "GreedyMapper",
    "RefineMapper",
    "DefaultMapper",
    "MAPPER_REGISTRY",
    "register_mapper",
    "available_mappers",
    "resolve_mapper",
]


@dataclass(frozen=True)
class Mapping:
    """A complete assignment of abstract processors to world processes."""

    processes: tuple[int, ...]  # world rank per abstract processor
    machines: tuple[int, ...]   # machine index per abstract processor
    time: float                 # predicted execution time of one scheme run

    def __post_init__(self) -> None:
        if len(self.processes) != len(self.machines):
            raise MappingError("processes and machines must have equal length")


def _build_mapping(
    processes: Sequence[int],
    model: AbstractBoundModel,
    netmodel: NetworkModel,
    stats: SelectionStats | None = None,
) -> Mapping:
    machines = tuple(netmodel.machine_of(p) for p in processes)
    time = TraceEvaluator(model, netmodel, stats).evaluate(machines)
    return Mapping(tuple(processes), machines, time)


def _check_inputs(
    model: AbstractBoundModel,
    candidates: Sequence[int],
    fixed: MappingABC[int, int],
) -> None:
    n = model.nproc
    if len(set(candidates)) != len(candidates):
        raise MappingError(f"duplicate candidate processes: {candidates}")
    if len(candidates) < n:
        raise MappingError(
            f"algorithm needs {n} processes but only {len(candidates)} are available"
        )
    for idx, proc in fixed.items():
        if not 0 <= idx < n:
            raise MappingError(f"fixed abstract processor {idx} out of range")
        if proc not in candidates:
            raise MappingError(
                f"fixed process {proc} (abstract {idx}) is not a candidate"
            )
    if len(set(fixed.values())) != len(fixed):
        raise MappingError("two abstract processors fixed to the same process")


class Mapper(ABC):
    """Strategy interface for process selection."""

    @abstractmethod
    def select(
        self,
        model: AbstractBoundModel,
        netmodel: NetworkModel,
        candidates: Sequence[int],
        fixed: MappingABC[int, int] | None = None,
        *,
        stats: SelectionStats | None = None,
    ) -> Mapping:
        """Choose a process per abstract processor minimising predicted time.

        ``stats``, when given, receives the engine's evaluation counters
        (and any mapper-specific counts such as symmetry pruning).
        """


def _class_representatives(pool: Sequence[int], labels: Sequence, k: int):
    """Yield one ``k``-permutation of ``pool`` per distinct label sequence.

    ``labels[i]`` is the equivalence class of ``pool[i]``.  The walk fills
    the slots depth-first; at each slot it tries every class that still has
    an unused member, ordered by the pool position of that class's next
    unused member, and takes that member.  The result is exactly what
    keeping the first permutation seen per label sequence, out of all
    ``k``-permutations in lexicographic order, would keep, in the same
    order — with all-distinct labels, every permutation.
    """
    members: dict = {}
    for pos, label in enumerate(labels):
        members.setdefault(label, []).append(pos)
    groups = list(members.values())
    taken = [0] * len(groups)
    chosen = [0] * k

    def walk(slot: int):
        if slot == k:
            yield tuple(chosen)
            return
        for pos, g in sorted(
            (group[t], g)
            for g, (group, t) in enumerate(zip(groups, taken))
            if t < len(group)
        ):
            chosen[slot] = pool[pos]
            taken[g] += 1
            yield from walk(slot + 1)
            taken[g] -= 1

    return walk(0)


#: Assignments :class:`ExhaustiveMapper` prices per batched evaluation.
_EXHAUSTIVE_BATCH = 512


class ExhaustiveMapper(Mapper):
    """Optimal selection by enumeration.

    Enumerates injective assignments of the non-fixed abstract processors
    to the remaining candidates, priced in batches through the compiled
    engine.  With ``reduce_symmetry`` (default on), candidate processes
    whose machines have identical speed estimates are treated as
    interchangeable, which collapses the paper's 9-machine search from 9!
    to a few hundred evaluations — exact whenever links are uniform (as on
    the paper's switched Ethernet); set it to False for clusters with
    heterogeneous links.

    The cost is one evaluation per distinct class signature; pruned
    permutations are counted, not visited (:func:`_class_representatives`),
    so a large symmetric pool costs nothing beyond its representatives.
    ``max_evaluations`` guards against combinatorial blow-up of the
    evaluated assignments.  Both counts are reported through
    :class:`SelectionStats`.
    """

    def __init__(
        self,
        reduce_symmetry: bool = True,
        max_evaluations: int = 200_000,
    ):
        self.reduce_symmetry = reduce_symmetry
        self.max_evaluations = max_evaluations

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
        n = model.nproc
        free_slots = [i for i in range(n) if i not in fixed]
        pinned = set(fixed.values())
        pool = [c for c in candidates if c not in pinned]
        evaluator = TraceEvaluator(model, netmodel, stats)

        base = [0] * n
        for idx, proc in fixed.items():
            base[idx] = proc

        # Equivalence class per pool process: assignments with the same
        # per-slot class sequence cannot price differently when links are
        # uniform.  With a topology attached, uniformity only holds among
        # leaves of the same parent node (siblings see identical link
        # costs to every other machine), so the class is refined by the
        # machine's parent path.  Without symmetry reduction every process
        # is its own class and the same walk visits every permutation.
        labels: list = pool
        if self.reduce_symmetry:
            topology = netmodel.cluster.topology
            labels = [
                (netmodel.speed_of_machine(m),
                 topology.parent_key(m) if topology is not None else None)
                for m in map(netmodel.machine_of, pool)
            ]

        best_time = float("inf")
        best_procs: tuple[int, ...] | None = None
        best_machines: tuple[int, ...] | None = None
        evaluations = 0
        pending: list[tuple[int, ...]] = []

        def flush() -> None:
            nonlocal best_time, best_procs, best_machines
            if not pending:
                return
            machines = [
                [netmodel.machine_of(p) for p in procs] for procs in pending
            ]
            times = evaluator.evaluate_batch(machines)
            idx = int(np.argmin(times))
            if times[idx] < best_time:
                best_time = float(times[idx])
                best_procs = pending[idx]
                best_machines = tuple(machines[idx])
            pending.clear()

        for combo in _class_representatives(pool, labels, len(free_slots)):
            evaluations += 1
            if evaluations > self.max_evaluations:
                raise MappingError(
                    f"exhaustive search exceeded {self.max_evaluations} "
                    "evaluations; use GreedyMapper/DefaultMapper"
                )
            assignment = list(base)
            for slot, proc in zip(free_slots, combo):
                assignment[slot] = proc
            pending.append(tuple(assignment))
            if len(pending) >= _EXHAUSTIVE_BATCH:
                flush()
        flush()
        if stats is not None:
            stats.symmetry_skips += (
                math.perm(len(pool), len(free_slots)) - evaluations
            )
        assert best_procs is not None and best_machines is not None
        return Mapping(best_procs, best_machines, best_time)


class GreedyMapper(Mapper):
    """LPT-style compute-balancing heuristic (communication-blind).

    Sorts abstract processors by computation volume (largest first) and
    assigns each to the candidate process whose machine would finish its
    accumulated volume soonest, honouring speed sharing between co-located
    assignments.  Runs in O(n · |candidates|).

    When the cluster carries a topology, ties on predicted finish time
    break toward **locality**: the candidate whose machine is closest (by
    topology-tree distance) to the machines already chosen.  On the
    equal-speed two-site preset this keeps a group that fits in one site
    inside that site instead of scattering it across the slow wide-area
    link.  Without a topology the tie-break is inert and the selection is
    exactly the historical one (first candidate with the minimal finish).
    """

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
        n = model.nproc
        volumes = model.node_volumes()
        assignment: list[int | None] = [None] * n
        machine_load: Counter[int] = Counter()  # accumulated volume per machine
        used: set[int] = set()
        used_machines: list[int] = []
        topo_aware = netmodel.cluster.topology is not None

        def claim(idx: int, proc: int) -> None:
            assignment[idx] = proc
            m = netmodel.machine_of(proc)
            machine_load[m] += volumes[idx]
            used.add(proc)
            used_machines.append(m)

        for idx, proc in fixed.items():
            claim(idx, proc)

        order = sorted(
            (i for i in range(n) if i not in fixed),
            key=lambda i: -volumes[i],
        )
        for i in order:
            best_proc = None
            best_key = None
            for pos, proc in enumerate(candidates):
                if proc in used:
                    continue
                m = netmodel.machine_of(proc)
                finish = (machine_load[m] + volumes[i]) / netmodel.speed_of_machine(m)
                locality = (
                    sum(netmodel.machine_distance(m, um) for um in used_machines)
                    if topo_aware else 0
                )
                key = (finish, locality, pos)
                if best_key is None or key < best_key:
                    best_key = key
                    best_proc = proc
            assert best_proc is not None  # _check_inputs guarantees capacity
            claim(i, best_proc)

        return _build_mapping(
            [p for p in assignment if p is not None], model, netmodel, stats
        )


class RefineMapper(Mapper):
    """Hill climbing with the full (communication-aware) estimator.

    Starts from ``seed``'s mapping and repeatedly applies the best
    improving move among (a) swapping the processes of two abstract
    processors and (b) moving one abstract processor to an unused
    candidate, until a local optimum or ``max_rounds``.  Each round's
    whole swap/move neighbourhood is priced with one batched engine call.
    """

    def __init__(self, seed: Mapper | None = None, max_rounds: int = 20):
        self.seed = seed or GreedyMapper()
        self.max_rounds = max_rounds

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
        current = self.seed.select(
            model, netmodel, candidates, fixed, stats=stats
        )
        n = model.nproc
        pinned = set(fixed.keys())
        evaluator = TraceEvaluator(model, netmodel, stats)

        for _ in range(self.max_rounds):
            assignment = list(current.processes)
            used = set(assignment)
            unused = [c for c in candidates if c not in used]
            trials: list[list[int]] = []
            # swap moves
            for i in range(n):
                if i in pinned:
                    continue
                for j in range(i + 1, n):
                    if j in pinned:
                        continue
                    if assignment[i] == assignment[j]:
                        continue
                    trial = list(assignment)
                    trial[i], trial[j] = trial[j], trial[i]
                    trials.append(trial)
            # move-to-unused moves
            for i in range(n):
                if i in pinned:
                    continue
                for proc in unused:
                    trial = list(assignment)
                    trial[i] = proc
                    trials.append(trial)
            if not trials:
                break
            machines = [
                [netmodel.machine_of(p) for p in trial] for trial in trials
            ]
            times = evaluator.evaluate_batch(machines)
            idx = int(np.argmin(times))
            if not times[idx] < current.time:
                break
            current = Mapping(
                tuple(trials[idx]), tuple(machines[idx]), float(times[idx])
            )
        return current


class DefaultMapper(Mapper):
    """The runtime default: greedy seed, then communication-aware refinement."""

    def __init__(self, max_rounds: int = 20):
        self._impl = RefineMapper(seed=GreedyMapper(), max_rounds=max_rounds)

    def select(
        self,
        model: AbstractBoundModel,
        netmodel: NetworkModel,
        candidates: Sequence[int],
        fixed: MappingABC[int, int] | None = None,
        *,
        stats: SelectionStats | None = None,
    ) -> Mapping:
        return self._impl.select(model, netmodel, candidates, fixed, stats=stats)


# ----------------------------------------------------------------------
# mapper registry — string specs for every entry point
# ----------------------------------------------------------------------

#: name -> zero-argument factory producing a default-configured mapper.
MAPPER_REGISTRY: dict[str, Callable[[], Mapper]] = {}

# Shared default instances per registry name: string specs must resolve to
# a stable identity so the runtime's selection cache can key on the mapper.
_RESOLVED: dict[str, Mapper] = {}


def register_mapper(
    name: str, factory: Callable[[], Mapper], *, overwrite: bool = False
) -> None:
    """Register a mapper factory under a string spec (case-insensitive)."""
    key = name.lower()
    if key in MAPPER_REGISTRY and not overwrite:
        raise MappingError(f"mapper {name!r} is already registered")
    MAPPER_REGISTRY[key] = factory
    _RESOLVED.pop(key, None)


def available_mappers() -> tuple[str, ...]:
    """Registered mapper specs, sorted."""
    return tuple(sorted(MAPPER_REGISTRY))


def resolve_mapper(
    spec: "str | Mapper | None", default: Mapper | None = None
) -> Mapper | None:
    """Resolve a mapper spec — instance, registry string, or None.

    Instances pass through unchanged; strings resolve to a shared
    default-configured instance of the registered strategy; ``None``
    resolves to ``default``.
    """
    if spec is None:
        return default
    if isinstance(spec, Mapper):
        return spec
    if isinstance(spec, str):
        key = spec.lower()
        instance = _RESOLVED.get(key)
        if instance is None:
            factory = MAPPER_REGISTRY.get(key)
            if factory is None:
                raise MappingError(
                    f"unknown mapper {spec!r}; available: "
                    f"{', '.join(available_mappers())}"
                )
            instance = factory()
            _RESOLVED[key] = instance
        return instance
    raise MappingError(
        f"mapper spec must be a registry string or Mapper instance, "
        f"got {type(spec).__name__}"
    )


register_mapper("greedy", GreedyMapper)
register_mapper("refine", RefineMapper)
register_mapper("exhaustive", ExhaustiveMapper)
register_mapper("default", DefaultMapper)
