"""Communication links and network protocols.

The paper's first HNOC challenge is that a common network is *ad hoc*: the
latency and bandwidth of the link between each pair of machines may differ,
and different pairs may be reachable over **multiple protocols** (TCP over
Ethernet, shared memory within a host, a faster interconnect between some
pairs).  A good library should use the fastest protocol available per pair —
MPICH only did this for shared memory + TCP; Nexus and Madeleine did it
generally.

A :class:`Link` therefore carries a *set* of protocols and can either be
pinned to one or pick the fastest for a given message size (protocols with
different latency/bandwidth trade-offs cross over at some size).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..util.errors import ClusterError
from ..util.validate import check_nonnegative, check_positive

__all__ = [
    "Protocol", "Link", "TCP_100MBIT", "SHARED_MEMORY", "FAST_INTERCONNECT",
    "GIGABIT_ETHERNET", "WAN_10MBIT",
]


@dataclass(frozen=True)
class Protocol:
    """A named point-to-point transport with linear cost model.

    Transfer time for ``nbytes`` is ``latency + nbytes / bandwidth`` —
    the classic Hockney model, which is also the model HMPI's estimator
    assumes, so simulation and prediction agree by construction.
    """

    name: str
    latency: float  # seconds per message
    bandwidth: float  # bytes per second

    def __post_init__(self) -> None:
        check_nonnegative(self.latency, f"latency of protocol {self.name!r}", ClusterError)
        check_positive(self.bandwidth, f"bandwidth of protocol {self.name!r}", ClusterError)

    def transfer_time(self, nbytes: int) -> float:
        """Seconds to move ``nbytes`` over this protocol."""
        if nbytes < 0:
            raise ClusterError(f"nbytes must be >= 0, got {nbytes}")
        return self.latency + nbytes / self.bandwidth


#: In-place protocol edits (:meth:`Link.pin` / :meth:`Link.unpin` that
#: change a pin) summed over every link.  :attr:`Cluster.version` adds it
#: to the cluster's own edit count, so editing a link object in place
#: re-prices the next selection.  Both counts only grow, so a stale
#: selection-cache key never comes back; an edit to a link of another
#: cluster costs that cluster one spurious re-price, never a stale answer.
link_edits = 0
# `+=` is not atomic: a lost update could move the count back.
_link_edits_lock = threading.Lock()


# 100 Mbit switched Ethernet of the paper: ~12.5 MB/s, sub-millisecond latency.
TCP_100MBIT = Protocol("tcp-100mbit", latency=1.5e-4, bandwidth=12.5e6)
# Intra-host transport for ranks co-located on one machine.
SHARED_MEMORY = Protocol("shm", latency=2.0e-6, bandwidth=1.0e9)
# A faster pairwise interconnect for multi-protocol experiments.
FAST_INTERCONNECT = Protocol("fast", latency=2.0e-5, bandwidth=1.0e8)
# Gigabit switch within a subnet/site (hierarchical topologies).
GIGABIT_ETHERNET = Protocol("tcp-1gbit", latency=5.0e-5, bandwidth=1.25e8)
# A slow wide-area link between sites (clusters-of-clusters).
WAN_10MBIT = Protocol("wan-10mbit", latency=5.0e-3, bandwidth=1.25e6)


class Link:
    """Directed communication channel between a pair of machines.

    Parameters
    ----------
    protocols:
        Available transports for this pair; at least one.
    pinned:
        Optional protocol name to force, disabling per-message selection —
        this models the standard-MPI limitation of a single protocol
        (the multi-protocol ablation in EXPERIMENTS.md).
    """

    __slots__ = ("protocols", "_pinned")

    def __init__(self, protocols: list[Protocol] | tuple[Protocol, ...], pinned: str | None = None):
        if not protocols:
            raise ClusterError("a link needs at least one protocol")
        names = [p.name for p in protocols]
        if len(set(names)) != len(names):
            raise ClusterError(f"duplicate protocol names on link: {names}")
        self.protocols: tuple[Protocol, ...] = tuple(protocols)
        self._pinned: str | None = None
        if pinned is not None:
            self.pin(pinned)

    @classmethod
    def single(cls, protocol: Protocol) -> "Link":
        """A link with exactly one protocol."""
        return cls([protocol])

    # ------------------------------------------------------------------
    # protocol selection
    # ------------------------------------------------------------------
    def pin(self, name: str) -> None:
        """Force all transfers to use the named protocol."""
        if name not in {p.name for p in self.protocols}:
            raise ClusterError(f"protocol {name!r} not available on this link")
        self._set_pin(name)

    def unpin(self) -> None:
        """Re-enable per-message fastest-protocol selection."""
        self._set_pin(None)

    def _set_pin(self, name: str | None) -> None:
        global link_edits
        if name != self._pinned:
            with _link_edits_lock:
                self._pinned = name
                link_edits += 1

    @property
    def pinned(self) -> str | None:
        return self._pinned

    def protocol_for(self, nbytes: int) -> Protocol:
        """The protocol a message of ``nbytes`` will travel over."""
        if len(self.protocols) == 1:
            return self.protocols[0]
        if self._pinned is not None:
            for p in self.protocols:
                if p.name == self._pinned:
                    return p
        return min(self.protocols, key=lambda p: p.transfer_time(nbytes))

    def transfer_time(self, nbytes: int) -> float:
        """Seconds to move ``nbytes`` with the selected protocol."""
        return self.protocol_for(nbytes).transfer_time(nbytes)

    # Representative parameters used by estimators that need a single
    # (latency, bandwidth) pair for symbolic reasoning.
    def effective_latency(self, nbytes: int = 1) -> float:
        return self.protocol_for(nbytes).latency

    def effective_bandwidth(self, nbytes: int = 1 << 20) -> float:
        return self.protocol_for(nbytes).bandwidth

    def __repr__(self) -> str:
        names = "/".join(p.name for p in self.protocols)
        pin = f", pinned={self._pinned!r}" if self._pinned else ""
        return f"Link({names}{pin})"
