"""Predicted-schedule export: unrolled communication nets as traces.

The :mod:`repro.perfmodel.net` lowering and the selection engine's
timing DAG know, *before any run*, exactly when every transition of a
model's communication net would fire on a given candidate mapping.  This
module turns that prediction into a regular
:class:`~repro.mpi.tracing.Tracer`, so the whole existing visualisation
pipeline applies unchanged: :func:`repro.util.gantt.render_gantt` for a
terminal chart, :func:`repro.obs.chrometrace.chrome_trace` +
:func:`~repro.obs.chrometrace.write_chrome_trace` for Perfetto.

Event mapping (one lane per **abstract processor**, not world rank):

- a compute transition becomes a ``"compute"`` event on its processor
  from its start (max of CPU and data-ready clocks) to its finish;
- a transfer transition becomes a ``"send"`` on the source (departure →
  CPU-side completion, the sender's modelled engagement) and a
  ``"recv"`` on the destination (link start → arrival, the message in
  flight toward it).

The timestamps are :meth:`NetEvaluator.event_times` — the same sweep
``NetEvaluator.evaluate`` takes its maximum over — so the trace's makespan
is **bitwise identical** to it and to ``Timeof`` for the same mapping.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from ..core.netmodel import NetworkModel
from ..core.seleng import NetEvaluator
from ..mpi.tracing import TraceEvent, Tracer
from ..perfmodel.model import AbstractBoundModel
from ..perfmodel.net import CommNet, lower_model
from ..util.errors import HMPIError
from .chrometrace import chrome_trace

__all__ = ["schedule_net", "net_chrome_trace"]


def schedule_net(
    model: AbstractBoundModel,
    netmodel: NetworkModel,
    machines: Sequence[int],
    net: CommNet | None = None,
) -> Tracer:
    """Predicted firing schedule of the model's net on one mapping.

    Returns a :class:`~repro.mpi.tracing.Tracer` whose events carry the
    net's source lines and volumes (``label`` holds the transition
    label), ready for ``render_gantt``/``chrome_trace``.  ``net`` may be
    passed in when the caller already lowered the model.
    """
    if net is None:
        net = lower_model(model)
    times = NetEvaluator(model, netmodel).event_times(machines)
    if len(net.kept) != len(times[0]):
        raise HMPIError(
            f"net/trace mismatch: {len(net.kept)} kept transitions vs "
            f"{len(times[0])} compiled events"
        )
    tracer = Tracer()
    for ev, depart, start, end, release in zip(net.kept, *times):
        if ev.is_transfer:
            nbytes = int(ev.volume)
            tracer.record(TraceEvent(
                rank=ev.a, kind="send", t0=depart, t1=release, peer=ev.b,
                nbytes=nbytes, volume=ev.volume, label=ev.label(),
            ))
            tracer.record(TraceEvent(
                rank=ev.b, kind="recv", t0=start, t1=end, peer=ev.a,
                nbytes=nbytes, volume=ev.volume, label=ev.label(),
            ))
        else:
            tracer.record(TraceEvent(
                rank=ev.a, kind="compute", t0=start, t1=end,
                volume=ev.volume, label=ev.label(),
            ))
    return tracer


def net_chrome_trace(
    model: AbstractBoundModel,
    netmodel: NetworkModel,
    machines: Sequence[int],
    net: CommNet | None = None,
    metadata: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Chrome-trace document of the predicted net schedule.

    A thin composition of :func:`schedule_net` and the existing
    :func:`~repro.obs.chrometrace.chrome_trace` exporter; lanes are
    abstract processors.  Write it with
    :func:`~repro.obs.chrometrace.write_chrome_trace`.
    """
    if net is None:
        net = lower_model(model)
    meta = {
        "exporter": "repro.obs.netexport",
        "transitions": net.ntransitions,
        "places": net.nplaces,
        "machines": list(machines),
    }
    if metadata:
        meta.update(metadata)
    return chrome_trace(
        tracer=schedule_net(model, netmodel, machines, net=net),
        metadata=meta,
    )
