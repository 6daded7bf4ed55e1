"""The heterogeneous network of computers (HNOC) as a whole.

A :class:`Cluster` is the executing environment both for the simulated MPI
substrate (which charges virtual time against it) and for the HMPI runtime's
network model (which estimates against it).  It owns the machines and a
directed link for every ordered pair, plus an intra-machine loopback link
for co-located ranks.

The default topology matches the paper's testbed: a switch connecting every
pair with identical 100 Mbit Ethernet, "enabling parallel communications
between the computers" — i.e. no cross-pair contention, which is also how
the virtual-time engine treats links (one clock per directed pair).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

from ..util.errors import ClusterError
from . import link as _link
from .link import SHARED_MEMORY, TCP_100MBIT, Link, Protocol
from .machine import Machine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .topology import Topology

__all__ = ["Cluster"]


class Cluster:
    """Machines plus pairwise links.

    Parameters
    ----------
    machines:
        The computers of the network; names must be unique.
    links:
        Optional explicit mapping ``(src_index, dst_index) -> Link`` for
        ordered pairs of distinct machines.  Pairs not present fall back to
        ``default_protocols``.
    default_protocols:
        Protocols available on unlisted inter-machine pairs (default: the
        paper's 100 Mbit TCP).
    loopback:
        Link used between ranks co-located on the same machine (default:
        shared memory).
    single_port:
        When True, a machine's network interface is occupied for the whole
        duration of each outgoing transfer (the classic single-port model):
        a sender cannot overlap its own sends, so tree-shaped collectives
        beat flat fan-out.  Default False — the paper's switched network
        "enabling parallel communications between the computers".
    topology:
        Optional hierarchical :class:`~repro.cluster.topology.Topology`
        (site → subnet → switch → machine).  When present, unconfigured
        machine pairs derive their link from the pair's deepest common
        ancestor level instead of ``default_protocols``; explicit links
        (the ``links`` mapping and :meth:`set_link`) still take precedence.

    A cluster stays mutable while a run holds it.  :attr:`version` counts
    the edits that can change a prediction — :meth:`set_topology`,
    :meth:`set_link`, :meth:`pin_all`, :meth:`unpin_all`, and pinning or
    unpinning a :class:`Link` object in place
    (``cluster.link(i, j).pin(...)``) — and keys the runtime's selection
    cache.
    """

    def __init__(
        self,
        machines: Sequence[Machine],
        links: Mapping[tuple[int, int], Link] | None = None,
        default_protocols: Sequence[Protocol] = (TCP_100MBIT,),
        loopback: Link | None = None,
        single_port: bool = False,
        topology: "Topology | None" = None,
    ):
        self.single_port = bool(single_port)
        self._version = 0
        #: Optional transient link-fault schedule (drop/delay of individual
        #: messages); attach via :func:`repro.cluster.faults.attach_transient_faults`.
        self.transient_faults = None
        #: Optional hierarchical topology; install via set_topology.
        self.topology: "Topology | None" = None
        #: Cache of topology-derived links, kept separate from the explicit
        #: `_links` so serialization only dumps what was configured.
        self._topo_links: dict[tuple[int, int], Link] = {}
        if not machines:
            raise ClusterError("a cluster needs at least one machine")
        names = [m.name for m in machines]
        if len(set(names)) != len(names):
            raise ClusterError(f"duplicate machine names: {names}")
        self.machines: tuple[Machine, ...] = tuple(machines)
        self._index = {m.name: i for i, m in enumerate(self.machines)}
        self._default_protocols = tuple(default_protocols)
        self.loopback = loopback if loopback is not None else Link.single(SHARED_MEMORY)
        self._links: dict[tuple[int, int], Link] = {}
        if links:
            n = len(self.machines)
            for (i, j), link in links.items():
                if not (0 <= i < n and 0 <= j < n):
                    raise ClusterError(f"link ({i}, {j}) references unknown machine index")
                if i == j:
                    raise ClusterError(
                        f"link ({i}, {j}) is a self-link; configure `loopback` instead"
                    )
                self._links[(i, j)] = link
        if topology is not None:
            self.set_topology(topology)

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def set_topology(self, topology: "Topology | None") -> None:
        """Install (or clear, with None) a hierarchical topology.

        The topology is validated and bound against this cluster's machine
        set; unconfigured pairs then derive their link from the pair's
        deepest common ancestor level.  Raises :class:`ClusterError` when
        the tree's leaves don't match the cluster machines exactly.
        """
        self._topo_links.clear()
        if topology is not None:
            topology.bind(self)
        self.topology = topology
        self._version += 1

    @property
    def version(self) -> int:
        """Count of cluster edits; never serialised, never in a digest.

        The cluster's own edits plus every in-place link pin/unpin
        (:data:`repro.cluster.link.link_edits`), so it only grows.
        """
        return self._version + _link.link_edits

    def machine_distance(self, src: int, dst: int) -> int:
        """Tree distance between two machines (flat mesh: 0 or 1)."""
        n = self.size
        if not (0 <= src < n and 0 <= dst < n):
            raise ClusterError(f"pair ({src}, {dst}) references unknown machine index")
        if self.topology is not None:
            return self.topology.distance(src, dst)
        return 0 if src == dst else 1

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of machines."""
        return len(self.machines)

    def __len__(self) -> int:
        return self.size

    def machine(self, key: int | str) -> Machine:
        """Machine by index or by name."""
        if isinstance(key, str):
            try:
                return self.machines[self._index[key]]
            except KeyError:
                raise ClusterError(f"no machine named {key!r}") from None
        try:
            return self.machines[key]
        except IndexError:
            raise ClusterError(f"machine index {key} out of range") from None

    def index_of(self, name: str) -> int:
        """Index of the machine with the given name."""
        try:
            return self._index[name]
        except KeyError:
            raise ClusterError(f"no machine named {name!r}") from None

    def speeds(self) -> list[float]:
        """Base speeds of all machines, in index order."""
        return [m.speed for m in self.machines]

    def link(self, src: int, dst: int) -> Link:
        """The directed link from machine ``src`` to machine ``dst``.

        For ``src == dst`` returns the loopback link.  Unconfigured pairs
        derive their link from the topology's deepest-common-ancestor level
        when a topology is attached, else get a lazily created link with
        the default protocol set (created once and cached, so pinning it
        later is sticky).
        """
        n = self.size
        if not (0 <= src < n and 0 <= dst < n):
            raise ClusterError(f"link ({src}, {dst}) references unknown machine index")
        if src == dst:
            return self.loopback
        key = (src, dst)
        found = self._links.get(key)
        if found is None and self.topology is not None:
            found = self._topo_links.get(key)
            if found is None:
                found = self.topology.pair_link(src, dst)
                self._topo_links[key] = found
        if found is None:
            found = Link(list(self._default_protocols))
            self._links[key] = found
        return found

    def set_link(self, src: int, dst: int, link: Link, symmetric: bool = True) -> None:
        """Install an explicit link for a pair (both directions by default)."""
        if src == dst:
            raise ClusterError("use the `loopback` attribute for self-links")
        n = self.size
        if not (0 <= src < n and 0 <= dst < n):
            raise ClusterError(f"link ({src}, {dst}) references unknown machine index")
        self._links[(src, dst)] = link
        if symmetric:
            self._links[(dst, src)] = link
        self._version += 1

    def all_links(self) -> Iterable[tuple[int, int, Link]]:
        """Iterate over every configured (non-default) directed link."""
        for (i, j), link in sorted(self._links.items()):
            yield i, j, link

    # ------------------------------------------------------------------
    # cost queries used by both the engine and the estimator
    # ------------------------------------------------------------------
    def transfer_time(self, src: int, dst: int, nbytes: int) -> float:
        """Seconds to move ``nbytes`` from machine ``src`` to ``dst``."""
        return self.link(src, dst).transfer_time(nbytes)

    def pin_all(self, protocol_name: str) -> None:
        """Pin every inter-machine link to one protocol (TCP-only baseline).

        Links that lack the protocol raise, so call this only on clusters
        built with a uniform protocol set.
        """
        n = self.size
        try:
            for i in range(n):
                for j in range(n):
                    if i != j:
                        self.link(i, j).pin(protocol_name)
        finally:  # a raise mid-loop has already pinned some links
            self._version += 1

    def unpin_all(self) -> None:
        """Re-enable fastest-protocol selection on every link."""
        for _, _, link in list(self.all_links()):
            link.unpin()
        for link in self._topo_links.values():
            link.unpin()
        self._version += 1

    def __repr__(self) -> str:
        speeds = ", ".join(f"{m.name}:{m.speed:g}" for m in self.machines)
        return f"Cluster({speeds})"
