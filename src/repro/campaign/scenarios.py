"""Build simulation scenarios from declarative campaign specs.

A campaign cell describes its world as plain JSON values: a ``cluster``
world spec, per-machine ``loads``, machine ``deaths``, ``transient``
link faults and administrative ``churn`` events.  Clusters, loads and
transient faults are read by :mod:`repro.cluster.serialize`, the parser
snapshots use; this module applies them to a cell's cluster and owns the
churn events.  Errors are :class:`~repro.util.errors.CampaignError`;
:class:`~repro.campaign.config.CampaignConfig` builds every distinct
world when a config loads, so a typo fails there (exit code 2 from the
CLI), not ten cells into a sweep.

Stochastic pieces (``random_walk`` loads, transient fault schedules)
take their seeds from the per-run RNG when the spec does not pin one, so
the whole scenario stays a deterministic function of the run's derived
seed.
"""

from __future__ import annotations

import math

import numpy as np

from ..cluster.faults import FaultSchedule, attach_transient_faults, inject_faults
from ..cluster.network import Cluster
from ..cluster.serialize import (
    cluster_from_spec,
    load_from_spec,
    transient_faults_from_spec,
)
from ..util.errors import CampaignError, ClusterError

__all__ = [
    "CHURN_OPS",
    "build_cluster",
    "apply_scenario",
    "normalize_churn",
    "ChurnEvent",
]

#: Administrative churn operations.
CHURN_OPS = ("leave", "join")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CampaignError(msg)


def build_cluster(spec) -> Cluster:
    """The cluster a cell runs on, from its ``cluster`` world spec (the
    ``topology`` kind makes topology itself a sweepable axis)."""
    try:
        return cluster_from_spec(spec)
    except ClusterError as exc:
        raise CampaignError(f"bad cluster spec: {exc}") from exc


# ----------------------------------------------------------------------
# churn events
# ----------------------------------------------------------------------

class ChurnEvent:
    """One administrative membership change: machine leaves or joins."""

    __slots__ = ("t", "op", "machine")

    def __init__(self, t: float, op: str, machine: int):
        self.t = float(t)
        self.op = op
        self.machine = int(machine)

    def __repr__(self) -> str:
        return f"ChurnEvent(t={self.t:g}, op={self.op!r}, machine={self.machine})"


def normalize_churn(spec, n_machines: int) -> list[ChurnEvent]:
    """Validate a churn spec — a list of ``{"t", "op", "machine"}`` dicts.

    Machine 0 hosts the HMPI host process under the default placement and
    may not churn; events are returned sorted by time (ties keep spec
    order, so a leave-then-join pair at one instant stays ordered).
    """
    if spec is None:
        return []
    _require(isinstance(spec, list),
             f"churn spec must be a list of events, got {spec!r}")
    events = []
    for i, ev in enumerate(spec):
        _require(isinstance(ev, dict) and set(ev) == {"t", "op", "machine"},
                 f"churn event #{i} must be a dict with keys t/op/machine, "
                 f"got {ev!r}")
        op = ev["op"]
        _require(op in CHURN_OPS,
                 f"churn event #{i}: unknown op {op!r}; "
                 f"expected one of {', '.join(CHURN_OPS)}")
        try:
            machine = int(ev["machine"])
            t = float(ev["t"])
        except (ValueError, TypeError) as exc:
            raise CampaignError(f"churn event #{i}: {exc}") from exc
        _require(0 <= machine < n_machines,
                 f"churn event #{i}: machine {machine} out of range "
                 f"(cluster has {n_machines})")
        _require(machine != 0,
                 f"churn event #{i}: machine 0 hosts the HMPI host process "
                 f"and cannot churn")
        _require(t >= 0.0 and math.isfinite(t),
                 f"churn event #{i}: t must be finite and >= 0, got {t}")
        events.append(ChurnEvent(t, op, machine))
    events.sort(key=lambda e: e.t)
    return events


# ----------------------------------------------------------------------
# whole-scenario application
# ----------------------------------------------------------------------

def apply_scenario(
    cluster: Cluster,
    rng: np.random.Generator,
    *,
    deaths: dict | None = None,
    transient: dict | None = None,
    loads: dict | None = None,
) -> Cluster:
    """Apply deaths / transient faults / load models to ``cluster`` in place.

    ``deaths`` maps machine index (JSON string or int) to fail vtime;
    ``transient`` is a :class:`~repro.cluster.faults.TransientFaultConfig`
    field dict plus an optional ``seed`` (drawn from ``rng`` when absent);
    ``loads`` maps machine index to a load-model spec.
    """
    def machine_index(key) -> int:
        try:
            m = int(key)
        except (ValueError, TypeError) as exc:
            raise CampaignError(f"machine index {key!r} is not an integer") from exc
        _require(0 <= m < cluster.size,
                 f"machine index {m} out of range (cluster has {cluster.size})")
        return m

    if deaths:
        _require(isinstance(deaths, dict),
                 f"deaths must map machine index to vtime, got {deaths!r}")
        try:
            schedule = FaultSchedule({
                cluster.machines[machine_index(m)].name: float(t)
                for m, t in deaths.items()
            })
            inject_faults(cluster, schedule)
        except (ClusterError, ValueError, TypeError) as exc:
            raise CampaignError(f"bad deaths spec {deaths!r}: {exc}") from exc
    if transient:
        try:
            faults = transient_faults_from_spec(transient, rng)
        except ClusterError as exc:
            raise CampaignError(f"bad transient spec: {exc}") from exc
        attach_transient_faults(cluster, faults)
    if loads:
        _require(isinstance(loads, dict),
                 f"loads must map machine index to a load spec, got {loads!r}")
        for m in sorted(loads, key=machine_index):
            try:
                load = load_from_spec(loads[m], rng)
            except ClusterError as exc:
                raise CampaignError(
                    f"bad load spec for machine {m}: {exc}") from exc
            cluster.machines[machine_index(m)].load = load
    return cluster
