"""Execution-time prediction — the machinery behind ``HMPI_Timeof``.

Replays a performance model's ``scheme`` against **resource clocks**:

- per abstract processor, a **CPU clock** (computation and send calls) and
  a **data-ready clock** (latest arrival it must wait for);
- one clock per directed abstract-processor pair (its link timeline).

Action semantics (matching the virtual-time execution engine's cost model
by construction):

- ``e %% [i]``: the compute starts at ``max(cpu(i), ready(i))`` — after
  the processor's own prior work *and* after the data it received — and
  advances both clocks by ``(e/100) * node_volume(i) / effective_speed(i)``;
- ``e %% [i] -> [j]``: the transfer departs at ``max(cpu(i),
  link_busy(i, j))``, takes the link's Hockney time for
  ``(e/100) * link_volume(i, j)`` bytes, occupies the pair's link until
  arrival, charges the sender one latency of CPU time, and lower-bounds
  j's data-ready clock by the arrival.

Sends deliberately do **not** wait on the sender's data-ready clock: like
the execution engine's programs (send your boundary data, then receive,
then compute), a processor forwards the data it owns without waiting for
what it is about to receive.  Dependencies between rounds flow through the
computes, which merge the two clocks.

Under this model ``par`` composition is implicit: actions touching disjoint
resources never serialise, while a sequential ``for`` over steps chains
naturally because each step's computes advance the CPU clocks that the
next step's transfers depart from.

Effective speed divides a machine's estimated speed among the abstract
processors mapped to it (speed sharing for co-located processes).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

import numpy as np

from ..perfmodel.model import AbstractBoundModel, LinearActionVisitor
from ..util.errors import HMPIError
from .netmodel import NetworkModel

__all__ = [
    "TimelineVisitor",
    "estimate_time",
    "estimate_breakdown",
    "record_trace",
]


class TimelineVisitor(LinearActionVisitor):
    """Resource-clock accumulator for one scheme replay.

    Parameters
    ----------
    node_volumes, link_volumes:
        The model's total per-processor benchmark units and pairwise bytes.
    speeds:
        Effective benchmark-units-per-second of each abstract processor
        (speed sharing already applied).
    netmodel:
        Link-cost oracle.
    machines:
        machine index of each abstract processor (the candidate mapping).
    """

    def __init__(
        self,
        node_volumes: np.ndarray,
        link_volumes: np.ndarray,
        speeds: Sequence[float],
        netmodel: NetworkModel,
        machines: Sequence[int],
    ):
        n = len(node_volumes)
        self.node_volumes = node_volumes
        self.link_volumes = link_volumes
        self.speeds = list(speeds)
        self.netmodel = netmodel
        self.machines = list(machines)
        self.cpu = [0.0] * n     # own work + send-call overheads
        self.ready = [0.0] * n   # latest arrival the processor waits on
        self.link_busy: dict[tuple[int, int], float] = {}
        self.compute_seconds = [0.0] * n
        self.transfer_bytes = 0.0
        self.actions = 0

    def compute(self, percent: float, proc: int) -> None:
        volume = (percent / 100.0) * float(self.node_volumes[proc])
        if volume < 0:
            raise HMPIError(f"negative compute volume on processor {proc}")
        duration = volume / self.speeds[proc]
        start = max(self.cpu[proc], self.ready[proc])
        finish = start + duration
        self.cpu[proc] = finish
        self.ready[proc] = finish
        self.compute_seconds[proc] += duration
        self.actions += 1

    def transfer(self, percent: float, src: int, dst: int) -> None:
        nbytes = (percent / 100.0) * float(self.link_volumes[src, dst])
        if nbytes < 0:
            raise HMPIError(f"negative transfer volume {src}->{dst}")
        self.actions += 1
        if nbytes == 0.0 or src == dst:
            return
        ms, md = self.machines[src], self.machines[dst]
        depart = self.cpu[src]
        start = max(depart, self.link_busy.get((src, dst), 0.0))
        arrival = start + self.netmodel.transfer_time(ms, md, nbytes)
        self.link_busy[(src, dst)] = arrival
        if self.netmodel.cluster.single_port:
            # Single-port model: the sender is occupied until the transfer
            # completes (mirrors the engine's flag).
            self.cpu[src] = arrival
        else:
            # CPU-side cost of issuing the send only: the CPU does not
            # wait for the link to drain.
            self.cpu[src] = depart + self.netmodel.latency(ms, md)
        if arrival > self.ready[dst]:
            self.ready[dst] = arrival
        self.transfer_bytes += nbytes

    @property
    def clock(self) -> list[float]:
        """Per-processor finish time (the later of cpu and data-ready)."""
        return [max(c, r) for c, r in zip(self.cpu, self.ready)]

    @property
    def makespan(self) -> float:
        return max(self.clock) if self.cpu else 0.0


def _effective_speeds(
    netmodel: NetworkModel, machines: Sequence[int]
) -> list[float]:
    """Per-abstract-processor speed with co-location sharing applied."""
    counts = Counter(machines)
    return [
        netmodel.speed_of_machine(m) / counts[m]
        for m in machines
    ]


class _TraceRecorder(LinearActionVisitor):
    """Records the scheme's action stream once for cheap replay.

    The interaction order declared by a ``scheme`` does not depend on the
    mapping (it is a property of the algorithm), so a single walk of the
    generated scheme can be replayed against many candidate mappings —
    this is what makes the mappers' local search affordable for schemes
    with tens of thousands of actions.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        # (is_transfer, fraction, a, b): compute -> (False, pct/100, proc, 0)
        self.events: list[tuple[bool, float, int, int]] = []

    def compute(self, percent: float, proc: int) -> None:
        self.events.append((False, percent / 100.0, proc, 0))

    def transfer(self, percent: float, src: int, dst: int) -> None:
        self.events.append((True, percent / 100.0, src, dst))


def record_trace(model: AbstractBoundModel) -> list[tuple[bool, float, int, int]]:
    """The model's scheme as a flat action list (cached on the model)."""
    cached = getattr(model, "_repro_trace", None)
    if cached is None:
        recorder = _TraceRecorder()
        model.walk_scheme(recorder)
        cached = recorder.events
        try:
            model._repro_trace = cached  # type: ignore[attr-defined]
        except AttributeError:  # models with __slots__ just skip the cache
            pass
    return cached


def estimate_time(
    model: AbstractBoundModel,
    netmodel: NetworkModel,
    machines: Sequence[int],
) -> float:
    """Predicted execution time of one scheme run under a candidate mapping.

    ``machines[i]`` is the machine index abstract processor ``i`` would run
    on.  This is the function ``HMPI_Timeof`` evaluates (with the mapping
    the runtime would actually choose) and the objective the mappers
    minimise.  The scheme is compiled once per model (see
    :mod:`repro.core.seleng`) and replayed from flat event arrays
    thereafter; mappers pricing whole neighbourhoods should use
    :func:`repro.core.seleng.evaluate_mappings` or a
    :class:`repro.core.seleng.TraceEvaluator` directly to amortise setup.
    """
    if len(machines) != model.nproc:
        raise HMPIError(
            f"mapping length {len(machines)} != model nproc {model.nproc}"
        )
    from .seleng import TraceEvaluator
    return TraceEvaluator(model, netmodel).evaluate(machines)


def estimate_breakdown(
    model: AbstractBoundModel,
    netmodel: NetworkModel,
    machines: Sequence[int],
) -> dict:
    """Like :func:`estimate_time` but returns diagnostic detail.

    Used by benchmarks and tests to inspect where predicted time goes.
    """
    visitor = TimelineVisitor(
        node_volumes=model.node_volumes(),
        link_volumes=model.link_volumes(),
        speeds=_effective_speeds(netmodel, machines),
        netmodel=netmodel,
        machines=machines,
    )
    model.walk_scheme(visitor)
    return {
        "makespan": visitor.makespan,
        "clocks": list(visitor.clock),
        "compute_seconds": list(visitor.compute_seconds),
        "transfer_bytes": visitor.transfer_bytes,
        "actions": visitor.actions,
    }
