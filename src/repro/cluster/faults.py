"""Fault-injection schedules.

The paper names resource failures as the second HNOC challenge and points at
FT-MPI; its conclusion envisions a library combining HMPI's heterogeneity
support with fault tolerance.  This module provides the ingredient the
simulator needs: a declarative schedule of machine deaths that can be applied
to a cluster.

A failed machine makes every rank placed on it raise
:class:`~repro.util.errors.MachineFailure` the next time it computes or
communicates past the failure time; the HMPI runtime's recovery hooks (see
:mod:`repro.core.runtime`) can then rebuild a group without the dead machine.

In addition to permanent machine deaths, :class:`TransientLinkFaults`
models *transient* network faults — individual messages dropped or delayed
on inter-machine links according to a seeded schedule — which the engine
masks with retransmission and backoff (see ``FTConfig`` in
:mod:`repro.mpi.engine`).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ..util.errors import ClusterError
from .network import Cluster

__all__ = [
    "FaultSchedule",
    "inject_faults",
    "TransientFaultConfig",
    "TransientLinkFaults",
    "attach_transient_faults",
]


class FaultSchedule:
    """Mapping from machine name to the virtual time it fails."""

    def __init__(self, failures: Mapping[str, float] | None = None):
        self._failures: dict[str, float] = {}
        if failures:
            for name, t in failures.items():
                self.add(name, t)

    def add(self, machine: str, fail_at: float) -> None:
        """Schedule ``machine`` to die at virtual time ``fail_at``."""
        if fail_at < 0:
            raise ClusterError(f"fail_at must be >= 0, got {fail_at}")
        self._failures[machine] = fail_at

    def fail_time(self, machine: str) -> float | None:
        """The scheduled failure time of ``machine``, or None."""
        return self._failures.get(machine)

    def __len__(self) -> int:
        return len(self._failures)

    def items(self):
        return self._failures.items()

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}@{v:g}" for k, v in sorted(self._failures.items()))
        return f"FaultSchedule({inner})"


def inject_faults(cluster: Cluster, schedule: FaultSchedule) -> Cluster:
    """Apply ``schedule`` to ``cluster`` in place and return it.

    Machines named in the schedule get their ``fail_at`` set; others are
    untouched.  Unknown machine names raise, to catch typos in experiment
    configuration early.
    """
    for name, t in schedule.items():
        cluster.machine(name).fail_at = t
    return cluster


@dataclass(frozen=True)
class TransientFaultConfig:
    """Per-link transient fault rates, active in a virtual-time window.

    ``drop_prob`` — each message copy is lost with this probability and
    must be retransmitted by the sender.  ``delay_prob``/``delay`` — the
    copy arrives, but ``delay`` virtual seconds late (network jitter).
    Faults only apply to messages *sent* while ``start <= vtime < stop``.
    """

    drop_prob: float = 0.0
    delay_prob: float = 0.0
    delay: float = 0.0
    start: float = 0.0
    stop: float = math.inf

    def __post_init__(self) -> None:
        if not (0.0 <= self.drop_prob <= 1.0):
            raise ClusterError(f"drop_prob must be in [0, 1], got {self.drop_prob}")
        if not (0.0 <= self.delay_prob <= 1.0):
            raise ClusterError(f"delay_prob must be in [0, 1], got {self.delay_prob}")
        if self.drop_prob + self.delay_prob > 1.0:
            raise ClusterError(
                "drop_prob + delay_prob must not exceed 1, got "
                f"{self.drop_prob} + {self.delay_prob}"
            )
        if self.delay < 0.0:
            raise ClusterError(f"delay must be >= 0, got {self.delay}")
        if self.stop < self.start:
            raise ClusterError(
                f"stop ({self.stop}) must be >= start ({self.start})"
            )

    @property
    def active(self) -> bool:
        """Whether this config can ever perturb a message."""
        return self.drop_prob > 0.0 or self.delay_prob > 0.0


class TransientLinkFaults:
    """Seeded schedule of transient message faults on inter-machine links.

    Attach to a cluster with :func:`attach_transient_faults` (or by setting
    ``cluster.transient_faults``); the MPI engine consults it for every
    message copy it transmits between distinct machines.

    Determinism does not depend on thread interleaving: the outcome of a
    transmission is a pure function of ``(seed, src_rank, dst_rank, seq,
    attempt)``, where ``seq`` is the per-pair message sequence number
    (per-pair channels are ordered, so ``seq`` is interleaving-invariant)
    and ``attempt`` counts retransmissions of the same message.  Each
    outcome uses a counter-based Philox stream keyed on that tuple, so no
    shared mutable RNG state exists.
    """

    def __init__(
        self,
        config: TransientFaultConfig | None = None,
        seed: int = 0,
        pair_configs: Mapping[tuple[str, str], TransientFaultConfig] | None = None,
    ):
        self.default = config if config is not None else TransientFaultConfig()
        self.seed = int(seed)
        self.pair_configs: dict[tuple[str, str], TransientFaultConfig] = (
            dict(pair_configs) if pair_configs else {}
        )

    def config_for(self, src_machine: str, dst_machine: str) -> TransientFaultConfig:
        """The config governing messages from ``src_machine`` to ``dst_machine``."""
        return self.pair_configs.get((src_machine, dst_machine), self.default)

    def outcome(
        self,
        src_rank: int,
        dst_rank: int,
        src_machine: str,
        dst_machine: str,
        seq: int,
        attempt: int,
        vtime: float,
    ) -> tuple[str, float]:
        """Fate of one transmission attempt: ``(kind, extra_delay)``.

        ``kind`` is ``"ok"``, ``"drop"``, or ``"delay"``; ``extra_delay``
        is nonzero only for ``"delay"``.  Loopback (same machine) traffic
        is never perturbed — transient faults model the *network*.
        """
        if src_machine == dst_machine:
            return ("ok", 0.0)
        cfg = self.config_for(src_machine, dst_machine)
        if not cfg.active or not (cfg.start <= vtime < cfg.stop):
            return ("ok", 0.0)
        pair = (src_rank << 20) ^ dst_rank
        rng = np.random.Generator(
            np.random.Philox(counter=[seq, attempt, 0, 0], key=[self.seed, pair])
        )
        u = float(rng.random())
        if u < cfg.drop_prob:
            return ("drop", 0.0)
        if u < cfg.drop_prob + cfg.delay_prob:
            return ("delay", cfg.delay)
        return ("ok", 0.0)

    def __repr__(self) -> str:
        pairs = f", pairs={len(self.pair_configs)}" if self.pair_configs else ""
        return (
            f"TransientLinkFaults(seed={self.seed}, "
            f"drop={self.default.drop_prob:g}, delay_p={self.default.delay_prob:g}"
            f"{pairs})"
        )


def attach_transient_faults(
    cluster: Cluster, faults: TransientLinkFaults | None
) -> Cluster:
    """Attach (or clear, with None) a transient-fault schedule in place.

    Validates that pair configs name real machines, for the same
    catch-typos-early reason :func:`inject_faults` does.
    """
    if faults is not None:
        for src, dst in faults.pair_configs:
            cluster.machine(src)
            cluster.machine(dst)
    cluster.transient_faults = faults
    return cluster
