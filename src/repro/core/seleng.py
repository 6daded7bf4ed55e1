"""Compiled selection engine — batched candidate-mapping evaluation.

``HMPI_Group_create`` and ``HMPI_Timeof`` spend their time pricing
candidate mappings: every mapper's search loop asks "how long would the
algorithm take if abstract processor *i* ran on machine ``machines[i]``?"
thousands of times per selection.  The straightforward answer — replay the
model's scheme through :class:`repro.core.estimator.TimelineVisitor` —
re-does per-call work that does not depend on the candidate at all: walking
the scheme, multiplying fractions into volumes, and resolving link costs.

This module compiles that invariant work out of the hot path:

1. :func:`compile_trace` turns the model's recorded action stream into one
   flat event list exactly once per model — a compute carries its volume,
   a transfer its abstract pair and its ordinal within that pair — with
   zero-byte and self transfers dropped at compile time (they cannot move
   any clock);
2. :class:`TraceEvaluator` prices one candidate in a single pass: one
   effective speed per abstract processor, one (cpu latency, per-event
   seconds) row per abstract pair from a table keyed by **machine
   pairs** — shared between every candidate that routes a given abstract
   pair over the same physical link, and between pairs with equal byte
   counts — and then one replay loop that reads a transfer's seconds from
   its pair's row and divides a compute's volume by its processor's
   speed, with no per-event cost array between the two;
3. :meth:`TraceEvaluator.evaluate_batch` amortises all of that setup
   across a whole neighbourhood (RefineMapper's swaps/moves,
   ExhaustiveMapper's permutation stream) and, for large batches, replays
   every candidate simultaneously with numpy vectors.

:class:`repro.core.estimator.TimelineVisitor` remains the semantic oracle:
the engine reproduces its arithmetic operation-for-operation (including
the byte rounding inside :meth:`Link.transfer_time` and the 1-byte
latency charge of non-single-port sends), and the property suite pins the
two together.

:class:`SelectionStats` carries the runtime's selection counters —
cache hits/misses, engine evaluations, batches, and the exhaustive
mapper's symmetry-pruning count — for benchmarks and regression tests.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass

import numpy as np

from ..perfmodel.model import AbstractBoundModel
from ..util.errors import HMPIError, OptionError
from ..util.options import check_choice
from .estimator import TimelineVisitor, _effective_speeds, record_trace
from .netmodel import NetworkModel

__all__ = [
    "SelectionStats",
    "CompiledTrace",
    "compile_trace",
    "TraceEvaluator",
    "NetEvaluator",
    "InterpEvaluator",
    "TimingDag",
    "compile_timing_dag",
    "make_evaluator",
    "TIMEOF_BACKENDS",
    "evaluate_mappings",
]

#: Evaluator kinds :func:`make_evaluator` builds.  ``"trace"`` replays the
#: compiled event arrays and is the one production pricing path; ``"net"``
#: (longest path over the precomputed timing DAG of the unrolled
#: communication net) and ``"interp"`` (scheme re-interpretation through
#: :class:`repro.core.estimator.TimelineVisitor` per candidate) are
#: reference evaluators for differential tests, benchmark probes and
#: schedule export — no runtime entry point selects them.
TIMEOF_BACKENDS = ("trace", "net", "interp")

#: Batches at least this large take the numpy-vectorised replay path;
#: smaller ones loop the fused scalar replay (lower constant overhead).
#: Re-measured with the fused replay on the paper network (2-CPU Xeon,
#: fresh evaluator per batch, µs per candidate, scalar / vectorised):
#:
#: ======  ===========  ===========  ===========  ===========  ==========
#: batch   32           64           96           128          512
#: ======  ===========  ===========  ===========  ===========  ==========
#: em3d9   30 / 47      26 / 31      25 / 30      24 / 21      16 / 7
#: mm      111 / 153    103 / 99     106 / 80     96 / 71      76 / 29
#: ======  ===========  ===========  ===========  ===========  ==========
#:
#: The crossover sits between 64 and 128 for both, so the value stays.
#: The suite's cold-selection deck feeds batches of 15–35 (refine) and
#: 136 or 336 (exhaustive), which take the same path at any value in
#: that range.
BATCH_VECTOR_THRESHOLD = 96


@dataclass
class SelectionStats:
    """Counters describing where selection effort went.

    One instance lives on :class:`repro.core.runtime.HMPIRuntimeState`
    (``state.selection_stats``) and is threaded through every selection
    the runtime performs.

    Attributes
    ----------
    cache_hits / cache_misses:
        Selection-cache outcomes of ``timeof``/``group_create`` calls.
    evaluations:
        Candidate mappings priced by the engine.
    batches:
        ``evaluate_batch`` calls (each amortises setup over many
        evaluations).
    symmetry_skips:
        Permutations the exhaustive mapper pruned as speed-symmetric
        duplicates.
    """

    cache_hits: int = 0
    cache_misses: int = 0
    evaluations: int = 0
    batches: int = 0
    symmetry_skips: int = 0

    def reset(self) -> None:
        self.cache_hits = self.cache_misses = 0
        self.evaluations = self.batches = self.symmetry_skips = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class CompiledTrace:
    """A model's scheme compiled to one flat event list.

    ``ops`` holds one ``(is_transfer, a, b, k, x)`` tuple per event, in
    scheme order.  A compute on processor ``a`` has ``b = k = 0`` and
    ``x`` its volume in benchmark units.  A transfer ``a -> b`` carries
    the index ``k`` of its distinct abstract (src, dst) pair and its
    ordinal ``x`` among that pair's events, so a candidate's link costs
    are one row per pair (resolved once per physical link) indexed by
    ``x``.  Zero-byte and self transfers are dropped (no clock moves);
    zero-volume computes are kept because they still merge a processor's
    CPU and data-ready clocks.  The numpy columns (``comp_*``,
    ``pair_event_idx``) serve the vectorised batch replay.
    """

    __slots__ = (
        "nproc", "nevents", "ops",
        "comp_idx", "comp_proc", "comp_vol",
        "pair_src", "pair_dst", "pair_ends",
        "pair_event_idx", "pair_vols_rounded", "npairs",
    )

    def __init__(self, model: AbstractBoundModel):
        trace = record_trace(model)
        nv = model.node_volumes()
        lv = model.link_volumes()
        self.nproc = model.nproc

        ops: list[tuple[bool, int, int, int, float]] = []
        comp_idx: list[int] = []
        comp_proc: list[int] = []
        comp_vol: list[float] = []
        pair_index: dict[tuple[int, int], int] = {}
        pair_event_idx: list[list[int]] = []
        pair_vols: list[list[float]] = []

        for is_transfer, fraction, a, b in trace:
            if not is_transfer:
                volume = fraction * float(nv[a])
                if volume < 0:
                    raise HMPIError(f"negative compute volume on processor {a}")
                comp_idx.append(len(ops))
                comp_proc.append(a)
                comp_vol.append(volume)
                ops.append((False, a, 0, 0, volume))
                continue
            nbytes = fraction * float(lv[a, b])
            if nbytes < 0:
                raise HMPIError(f"negative transfer volume {a}->{b}")
            if nbytes == 0.0 or a == b:
                continue
            k = pair_index.setdefault((a, b), len(pair_index))
            if k == len(pair_event_idx):
                pair_event_idx.append([])
                pair_vols.append([])
            ops.append((True, a, b, k, len(pair_vols[k])))
            pair_event_idx[k].append(len(ops) - 1)
            pair_vols[k].append(nbytes)

        self.ops = ops
        self.nevents = len(ops)
        self.comp_idx = np.asarray(comp_idx, dtype=np.intp)
        self.comp_proc = np.asarray(comp_proc, dtype=np.intp)
        self.comp_vol = np.asarray(comp_vol, dtype=float)
        pairs = sorted(pair_index, key=pair_index.get)
        self.pair_src = np.asarray([p[0] for p in pairs], dtype=np.intp)
        self.pair_dst = np.asarray([p[1] for p in pairs], dtype=np.intp)
        self.pair_ends = tuple(pairs)
        self.pair_event_idx = tuple(
            np.asarray(idx, dtype=np.intp) for idx in pair_event_idx
        )
        # Byte counts rounded once, the way Link.transfer_time rounds them
        # (np.rint == round-half-to-even == builtin round on floats).
        self.pair_vols_rounded = tuple(
            np.rint(np.asarray(v, dtype=float)).tolist() for v in pair_vols
        )
        self.npairs = len(pairs)


def compile_trace(model: AbstractBoundModel) -> CompiledTrace:
    """Compile (and cache on the model) the model's scheme trace."""
    cached = getattr(model, "_repro_compiled_trace", None)
    if cached is None:
        cached = CompiledTrace(model)
        try:
            model._repro_compiled_trace = cached  # type: ignore[attr-defined]
        except AttributeError:  # models with __slots__ just skip the cache
            pass
    return cached


class TraceEvaluator:
    """Prices candidate mappings of one model against one network model.

    Holds the compiled trace plus a link-cost table: one dict per abstract
    pair (pairs with equal byte counts share one), keyed by
    ``(machine_src, machine_dst)``, so candidates that route an abstract
    pair over the same physical link share the cost computation.  The table is built through ``cluster.link``, so when the
    cluster has a :class:`~repro.cluster.topology.Topology` each entry
    carries the hierarchy-derived protocols of the pair's deepest common
    ancestor — selection prices candidate mappings with the same
    site/subnet/switch structure the execution engine charges.  Create one
    per selection (the mappers do); the table assumes link parameters and
    machine speeds are stable for the evaluator's lifetime.
    """

    def __init__(
        self,
        model: AbstractBoundModel,
        netmodel: NetworkModel,
        stats: SelectionStats | None = None,
    ):
        self.trace = compile_trace(model)
        self.netmodel = netmodel
        self.cluster = netmodel.cluster
        self.single_port = bool(self.cluster.single_port)
        self.stats = stats
        # per pair k: (machine_src, machine_dst) ->
        #     (cpu latency, per-event seconds); equal byte counts give
        # equal rows on a link, so such pairs share one dict.
        by_volumes: dict[tuple[float, ...], dict] = {}
        self._pair_rows: list[dict[tuple[int, int], tuple[float, list[float]]]] = [
            by_volumes.setdefault(tuple(vols), {})
            for vols in self.trace.pair_vols_rounded
        ]
        # (machine_src, machine_dst) -> (cpu latency, [(latency, bandwidth)])
        self._link_cache: dict[
            tuple[int, int], tuple[float, list[tuple[float, float]]]
        ] = {}

    # ------------------------------------------------------------------
    # link-cost table
    # ------------------------------------------------------------------
    def _link_params(
        self, mu: int, mv: int
    ) -> tuple[float, list[tuple[float, float]]]:
        hit = self._link_cache.get((mu, mv))
        if hit is None:
            link = self.cluster.link(mu, mv)
            # Non-single-port sends charge the CPU the pair's per-message
            # latency, which the oracle resolves for a 1-byte probe.
            probe = link.protocol_for(1)
            if link.pinned is not None or len(link.protocols) == 1:
                params = [(probe.latency, probe.bandwidth)]
            else:
                params = [(p.latency, p.bandwidth) for p in link.protocols]
            hit = (probe.latency, params)
            self._link_cache[(mu, mv)] = hit
        return hit

    def _pair_cost(self, k: int, mu: int, mv: int) -> tuple[float, list[float]]:
        rows = self._pair_rows[k]
        hit = rows.get((mu, mv))
        if hit is None:
            cpu_lat, params = self._link_params(int(mu), int(mv))
            # Volumes were rounded at compile time, matching the rounding
            # inside Link.transfer_time; the Hockney formula itself is
            # plain float arithmetic (bit-identical to the oracle's).
            rounded = self.trace.pair_vols_rounded[k]
            if len(params) == 1:
                lat, bw = params[0]
                sec_list = [lat + v / bw for v in rounded]
            else:
                sec_list = [
                    min(lat + v / bw for lat, bw in params) for v in rounded
                ]
            hit = (cpu_lat, sec_list)
            rows[(mu, mv)] = hit
        return hit

    def _candidate_costs(
        self, machines: Sequence[int]
    ) -> tuple[list[float], list[float], list[list[float]]]:
        """One candidate's effective speed per abstract processor, and
        its (cpu latency, per-event seconds) per abstract pair."""
        ct = self.trace
        if len(machines) != ct.nproc:
            raise HMPIError(
                f"mapping length {len(machines)} != model nproc {ct.nproc}"
            )
        eff: list[float] = []
        if len(ct.comp_idx):
            counts: dict[int, int] = {}
            for m in machines:
                counts[m] = counts.get(m, 0) + 1
            speed_of = self.netmodel.speed_of_machine
            eff = [speed_of(m) / counts[m] for m in machines]
        pair_rows = self._pair_rows
        pair_cost = self._pair_cost
        rows = [
            pair_rows[k].get((machines[ps], machines[pd]))
            or pair_cost(k, machines[ps], machines[pd])
            for k, (ps, pd) in enumerate(ct.pair_ends)
        ]
        return eff, [r[0] for r in rows], [r[1] for r in rows]

    # ------------------------------------------------------------------
    # single-candidate path
    # ------------------------------------------------------------------
    def evaluate(self, machines: Sequence[int]) -> float:
        """Predicted makespan of one candidate mapping."""
        if self.stats is not None:
            self.stats.evaluations += 1
        return self._evaluate_one(machines)

    def _evaluate_one(self, machines: Sequence[int]) -> float:
        # One pass: a transfer reads its pair's row, a compute divides its
        # volume by its processor's effective speed, in scheme order.
        eff, lats, secs = self._candidate_costs(machines)
        ct = self.trace
        cpu = [0.0] * ct.nproc
        ready = [0.0] * ct.nproc
        busy = [0.0] * ct.npairs
        single_port = self.single_port
        for is_transfer, a, b, k, x in ct.ops:
            if is_transfer:
                depart = cpu[a]
                start = busy[k]
                if depart > start:
                    start = depart
                arrival = start + secs[k][x]
                busy[k] = arrival
                cpu[a] = arrival if single_port else depart + lats[k]
                if arrival > ready[b]:
                    ready[b] = arrival
            else:
                c = cpu[a]
                r = ready[a]
                finish = (c if c >= r else r) + x / eff[a]
                cpu[a] = finish
                ready[a] = finish
        best = 0.0
        for c, r in zip(cpu, ready):
            if c > best:
                best = c
            if r > best:
                best = r
        return best

    # ------------------------------------------------------------------
    # batched path
    # ------------------------------------------------------------------
    def evaluate_batch(self, mappings: Sequence[Sequence[int]]) -> np.ndarray:
        """Predicted makespans of many candidate mappings at once.

        Setup (effective speeds, link costs) is shared across the batch;
        batches of :data:`BATCH_VECTOR_THRESHOLD` or more replay all
        candidates simultaneously with numpy vectors.
        """
        nmappings = len(mappings)
        if self.stats is not None:
            self.stats.evaluations += nmappings
            self.stats.batches += 1
        if nmappings == 0:
            return np.empty(0)
        ct = self.trace
        if nmappings < BATCH_VECTOR_THRESHOLD or ct.nevents == 0:
            return np.asarray([self._evaluate_one(m) for m in mappings])
        return self._evaluate_vectorised(mappings)

    def _evaluate_vectorised(self, mappings: Sequence[Sequence[int]]) -> np.ndarray:
        ct = self.trace
        n = ct.nproc
        mapmat = np.asarray(mappings, dtype=np.intp)
        if mapmat.ndim != 2 or mapmat.shape[1] != n:
            raise HMPIError(
                f"candidate mappings must all have length {n}, "
                f"got shape {mapmat.shape}"
            )
        nbatch = mapmat.shape[0]
        rows = np.arange(nbatch)[:, None]

        dur = np.empty((nbatch, ct.nevents))
        lat_pair = np.zeros((nbatch, max(ct.npairs, 1)))

        if len(ct.comp_idx):
            nmach = self.cluster.size
            speeds = self.netmodel.speeds()
            counts = np.zeros((nbatch, nmach))
            np.add.at(counts, (rows, mapmat), 1.0)
            # Same arithmetic as the oracle: speed / co-location count,
            # then volume / effective speed.
            eff = speeds[mapmat] / counts[rows, mapmat]
            dur[:, ct.comp_idx] = ct.comp_vol[None, :] / eff[:, ct.comp_proc]

        for k in range(ct.npairs):
            mu = mapmat[:, ct.pair_src[k]]
            mv = mapmat[:, ct.pair_dst[k]]
            keys = mu * self.cluster.size + mv
            uniq, inverse = np.unique(keys, return_inverse=True)
            sec_rows = np.empty((len(uniq), len(ct.pair_vols_rounded[k])))
            lat_rows = np.empty(len(uniq))
            for u, key in enumerate(uniq):
                cpu_lat, seconds = self._pair_cost(
                    k, int(key) // self.cluster.size, int(key) % self.cluster.size
                )
                sec_rows[u] = seconds
                lat_rows[u] = cpu_lat
            dur[:, ct.pair_event_idx[k]] = sec_rows[inverse]
            lat_pair[:, k] = lat_rows[inverse]

        cpu = np.zeros((nbatch, n))
        ready = np.zeros((nbatch, n))
        busy = np.zeros((nbatch, max(ct.npairs, 1)))
        single_port = self.single_port
        for i, (is_transfer, a, b, k, _x) in enumerate(ct.ops):
            d = dur[:, i]
            if is_transfer:
                depart = cpu[:, a]
                start = np.maximum(depart, busy[:, k])
                arrival = start + d
                busy[:, k] = arrival
                if single_port:
                    cpu[:, a] = arrival
                else:
                    cpu[:, a] = depart + lat_pair[:, k]
                np.maximum(ready[:, b], arrival, out=ready[:, b])
            else:
                finish = np.maximum(cpu[:, a], ready[:, a]) + d
                cpu[:, a] = finish
                ready[:, a] = finish
        return np.max(np.maximum(cpu, ready), axis=1)


class TimingDag:
    """Per-event dependency structure of a compiled trace.

    The trace's clock semantics make every event's timestamps a function
    of a *fixed* set of earlier events — which events is a property of
    the (model, shape) alone, not of the candidate mapping:

    - every event departs from the value its processor's **last CPU
      writer** left (``cpu_pred``; -1 means the zero clock);
    - a transfer also waits for the **previous transfer on its abstract
      pair** (``busy_pred``);
    - a compute also waits for its processor's **data-ready** value: the
      previous compute on the processor plus every arrival recorded
      since it (``ready_preds``).

    Because the trace is emitted in interpretation order, each
    predecessor index is strictly smaller than its event's — the event
    arrays *are* a topological order of the unrolled communication net
    (see :mod:`repro.perfmodel.net`), so one forward pass evaluates the
    whole DAG.  Built once per (model, shape) and cached on the model.
    """

    __slots__ = ("cpu_pred", "busy_pred", "ready_preds")

    def __init__(self, ct: CompiledTrace):
        nproc, npairs = ct.nproc, ct.npairs
        last_cpu = [-1] * nproc   # last event that wrote the proc's cpu clock
        last_pair = [-1] * npairs
        last_comp = [-1] * nproc
        pending: list[list[int]] = [[] for _ in range(nproc)]
        cpu_pred: list[int] = []
        busy_pred: list[int] = []
        ready_preds: list[tuple[int, ...] | None] = []
        for i, (is_transfer, a, b, k, _x) in enumerate(ct.ops):
            cpu_pred.append(last_cpu[a])
            if is_transfer:
                busy_pred.append(last_pair[k])
                ready_preds.append(None)
                last_pair[k] = i
                pending[b].append(i)
            else:
                busy_pred.append(-1)
                preds = [last_comp[a]] if last_comp[a] >= 0 else []
                preds += pending[a]
                pending[a].clear()
                ready_preds.append(tuple(preds))
                last_comp[a] = i
            last_cpu[a] = i
        self.cpu_pred = cpu_pred
        self.busy_pred = busy_pred
        self.ready_preds = ready_preds


def compile_timing_dag(model: AbstractBoundModel, ct: CompiledTrace) -> TimingDag:
    """Build (and cache on the model) the trace's timing DAG."""
    cached = getattr(model, "_repro_timing_dag", None)
    if cached is None:
        cached = TimingDag(ct)
        try:
            model._repro_timing_dag = cached  # type: ignore[attr-defined]
        except AttributeError:  # models with __slots__ just skip the cache
            pass
    return cached


class NetEvaluator(TraceEvaluator):
    """Longest-path candidate pricing over the precomputed timing DAG.

    A *reference* evaluator (kind ``"net"``): instead of replaying
    resource clocks, each event's times are computed directly from its
    DAG predecessors in one topological pass (:meth:`event_times`), and
    the makespan is the longest path (every clock is monotone, so the
    maximum over all event values equals the maximum over the final
    clocks).  The arithmetic reproduces the scalar replay of
    :meth:`TraceEvaluator.evaluate` operation-for-operation, so
    predictions are **bitwise identical** to the production trace replay
    and the :class:`~repro.core.estimator.TimelineVisitor` oracle.  The
    property suite pins the two together, and
    :func:`repro.obs.netexport.schedule_net` renders the same per-event
    times as a predicted schedule.

    Batches always take the scalar DAG pass (no vectorised fallback).
    """

    def __init__(
        self,
        model: AbstractBoundModel,
        netmodel: NetworkModel,
        stats: SelectionStats | None = None,
    ):
        super().__init__(model, netmodel, stats)
        self._dag = compile_timing_dag(model, self.trace)

    def _fill_costs(
        self, machines: Sequence[int]
    ) -> tuple[list[float], list[float]]:
        """Per-event (duration, cpu-latency) lists for one candidate."""
        eff, lats, secs = self._candidate_costs(machines)
        ops = self.trace.ops
        dur = [secs[k][x] if t else x / eff[a] for t, a, _b, k, x in ops]
        lat = [lats[k] if t else 0.0 for t, _a, _b, k, _x in ops]
        return dur, lat

    def event_times(
        self, machines: Sequence[int]
    ) -> tuple[list[float], list[float], list[float], list[float]]:
        """Firing times of every compiled event on one candidate mapping.

        Returns four lists indexed like the compiled trace's events:
        ``depart`` (the acting processor's CPU clock when the event is
        issued), ``start`` (link start of a transfer / start of a
        compute, after waiting for the pair's previous transfer or the
        processor's data), ``end`` (arrival / finish) and ``release``
        (the CPU clock the event leaves behind: a transfer's sender-side
        completion, a compute's finish).
        """
        dur, lat = self._fill_costs(machines)
        dag = self._dag
        cpu_pred, busy_pred, ready_preds = (
            dag.cpu_pred, dag.busy_pred, dag.ready_preds,
        )
        single_port = self.single_port
        nevents = self.trace.nevents
        departs = [0.0] * nevents
        starts = [0.0] * nevents
        end = [0.0] * nevents
        release = [0.0] * nevents
        for i, (is_transfer, _a, _b, _k, _x) in enumerate(self.trace.ops):
            cp = cpu_pred[i]
            depart = release[cp] if cp >= 0 else 0.0
            departs[i] = depart
            if is_transfer:
                bp = busy_pred[i]
                start = end[bp] if bp >= 0 else 0.0
                if depart > start:
                    start = depart
                arrival = start + dur[i]
                end[i] = arrival
                release[i] = arrival if single_port else depart + lat[i]
            else:
                r = 0.0
                for p in ready_preds[i]:
                    v = end[p]
                    if v > r:
                        r = v
                start = depart if depart >= r else r
                end[i] = release[i] = start + dur[i]
            starts[i] = start
        return departs, starts, end, release

    def _evaluate_one(self, machines: Sequence[int]) -> float:
        _, _, end, release = self.event_times(machines)
        return max(max(end, default=0.0), max(release, default=0.0))

    def evaluate_batch(self, mappings: Sequence[Sequence[int]]) -> np.ndarray:
        nmappings = len(mappings)
        if self.stats is not None:
            self.stats.evaluations += nmappings
            self.stats.batches += 1
        if nmappings == 0:
            return np.empty(0)
        return np.asarray([self._evaluate_one(m) for m in mappings])


class InterpEvaluator:
    """Per-candidate scheme re-interpretation (reference kind ``"interp"``).

    Walks the model's scheme through the
    :class:`~repro.core.estimator.TimelineVisitor` oracle for every
    candidate — no compiled trace, no shared link-cost table.  This is
    the honest pre-engine cost model: differential tests pin the compiled
    evaluators to it, and the benchmark probes measure their speedup
    against it.
    """

    def __init__(
        self,
        model: AbstractBoundModel,
        netmodel: NetworkModel,
        stats: SelectionStats | None = None,
    ):
        self.model = model
        self.netmodel = netmodel
        self.stats = stats

    def _evaluate_one(self, machines: Sequence[int]) -> float:
        model = self.model
        if len(machines) != model.nproc:
            raise HMPIError(
                f"mapping length {len(machines)} != model nproc {model.nproc}"
            )
        visitor = TimelineVisitor(
            node_volumes=model.node_volumes(),
            link_volumes=model.link_volumes(),
            speeds=_effective_speeds(self.netmodel, machines),
            netmodel=self.netmodel,
            machines=list(machines),
        )
        model.walk_scheme(visitor)
        return visitor.makespan

    def evaluate(self, machines: Sequence[int]) -> float:
        if self.stats is not None:
            self.stats.evaluations += 1
        return self._evaluate_one(machines)

    def evaluate_batch(self, mappings: Sequence[Sequence[int]]) -> np.ndarray:
        if self.stats is not None:
            self.stats.evaluations += len(mappings)
            self.stats.batches += 1
        if not len(mappings):
            return np.empty(0)
        return np.asarray([self._evaluate_one(m) for m in mappings])


def make_evaluator(
    model: AbstractBoundModel,
    netmodel: NetworkModel,
    stats: SelectionStats | None = None,
    kind: str | None = None,
) -> TraceEvaluator | InterpEvaluator:
    """Construct a candidate evaluator by kind (:data:`TIMEOF_BACKENDS`).

    ``None`` means ``"trace"``, the production evaluator every mapper
    builds directly; ``"net"`` and ``"interp"`` are the reference
    evaluators differential tests and benchmark probes compare it with.
    Unknown names raise :class:`~repro.util.errors.OptionError` (uniform
    with every other registry-string option).
    """
    kind = check_choice(
        "evaluator kind", kind or "trace", TIMEOF_BACKENDS, OptionError
    )
    if kind == "net":
        return NetEvaluator(model, netmodel, stats)
    if kind == "interp":
        return InterpEvaluator(model, netmodel, stats)
    return TraceEvaluator(model, netmodel, stats)


def evaluate_mappings(
    model: AbstractBoundModel,
    netmodel: NetworkModel,
    candidate_mappings: Sequence[Sequence[int]],
    stats: SelectionStats | None = None,
) -> np.ndarray:
    """Predicted makespans of many candidate mappings (batch entry point).

    ``candidate_mappings[j][i]`` is the machine index abstract processor
    ``i`` runs on under candidate ``j``.  Returns one predicted time per
    candidate, in order.
    """
    return TraceEvaluator(model, netmodel, stats).evaluate_batch(
        candidate_mappings
    )
