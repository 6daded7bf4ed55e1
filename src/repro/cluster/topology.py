"""Hierarchical network topology: sites, subnets, switches, machines.

The paper targets heterogeneous *networks* of computers, but a flat
pairwise mesh cannot express where machines actually sit: clusters of
clusters have a WAN between sites, a LAN between subnets, and a switch (or
shared memory) within a machine room, each layer with its own latency and
bandwidth class.  MPICH-G2 showed that making this multilevel structure
visible to the library — driving both collective algorithm choice and
process placement — is what makes message passing viable on such networks.

A :class:`Topology` is a tree of :class:`TopologyNode`: interior nodes are
communication *levels* (site, subnet, switch — any names/kinds you like,
arbitrary depth) carrying the :class:`~repro.cluster.link.Protocol` set
that governs traffic crossing that level; leaves name machines.  Two
machines communicate over the protocols of their **deepest common
ancestor**: the cheapest level that still spans both.  Attaching a
topology to a :class:`~repro.cluster.network.Cluster` makes every
unconfigured pair derive its link from the tree (explicitly configured
links still win), so the virtual-time engine, the selection engine's
link-cost tables, and ``HMPI_Timeof`` all price communication
hierarchically without further changes.

A degenerate one-level topology (root with only machine leaves) is
exactly the flat mesh: every pair's deepest common ancestor is the root,
so every pair costs the root's protocol — the property suite pins this
equivalence bit-for-bit.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..util.errors import ClusterError
from .link import Link, Protocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .network import Cluster

__all__ = [
    "TopologyNode",
    "Topology",
    "TopologyReport",
]


@dataclass
class TopologyNode:
    """One node of the topology tree.

    Interior nodes (``children`` non-empty) are communication levels and
    must carry at least one protocol: traffic between machines whose
    deepest common ancestor is this node travels over (the fastest of)
    ``protocols``.  Leaves (``machine`` set) name a cluster machine;
    intra-machine traffic uses the cluster's loopback link, so leaves
    carry no protocols.
    """

    name: str
    kind: str = "level"  # descriptive: "site" | "subnet" | "switch" | ...
    protocols: tuple[Protocol, ...] = ()
    children: tuple["TopologyNode", ...] = ()
    machine: str | None = None

    def __post_init__(self) -> None:
        self.protocols = tuple(self.protocols)
        self.children = tuple(self.children)

    @classmethod
    def leaf(cls, machine: str) -> "TopologyNode":
        """A leaf node standing for one machine."""
        return cls(name=machine, kind="machine", machine=machine)

    @property
    def is_leaf(self) -> bool:
        return self.machine is not None

    def walk(self) -> Iterable[tuple[tuple[int, ...], "TopologyNode"]]:
        """Yield ``(path, node)`` pairs in depth-first order.

        ``path`` is the sequence of child indices from the root; the root
        itself has the empty path.
        """
        stack: list[tuple[tuple[int, ...], TopologyNode]] = [((), self)]
        while stack:
            path, node = stack.pop()
            yield path, node
            for i in range(len(node.children) - 1, -1, -1):
                stack.append(((*path, i), node.children[i]))


@dataclass
class TopologyReport:
    """Validation outcome: hard errors plus advisory warnings."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def render(self) -> str:
        lines = [f"error: {e}" for e in self.errors]
        lines += [f"warning: {w}" for w in self.warnings]
        return "\n".join(lines) if lines else "ok"


class Topology:
    """A machine hierarchy plus the pair-cost queries derived from it.

    Construct from a root :class:`TopologyNode`, then attach to a cluster
    with :meth:`Cluster.set_topology` (which calls :meth:`bind`).  Until
    bound, only structural queries (:meth:`leaf_names`, :meth:`validate`)
    are available; binding indexes the tree against the cluster's machine
    order and enables the per-pair queries the engine and estimator use.
    """

    def __init__(self, root: TopologyNode):
        self.root = root
        self._cluster: "Cluster | None" = None
        #: machine index -> path of child indices from root to its leaf
        self._paths: list[tuple[int, ...]] = []
        self._node_at: dict[tuple[int, ...], TopologyNode] = {}

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def leaf_names(self) -> list[str]:
        """Machine names at the leaves, in depth-first order."""
        return [n.machine for _, n in self.root.walk() if n.is_leaf]

    @property
    def depth(self) -> int:
        """Longest root-to-leaf path length (a flat tree has depth 1)."""
        return max((len(p) for p, n in self.root.walk() if n.is_leaf),
                   default=0)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self, cluster: "Cluster | None" = None) -> TopologyReport:
        """Check the tree's structure (and, if given, its fit to a cluster).

        Errors make the topology unusable (duplicate machines, interior
        levels without protocols, machines missing from the cluster);
        warnings flag designs that work but defeat the point (a deeper
        level slower than its ancestor, single-child chains).
        """
        report = TopologyReport()
        seen: dict[str, int] = {}
        for path, node in self.root.walk():
            where = node.name or "/".join(map(str, path)) or "<root>"
            if node.is_leaf:
                if node.children:
                    report.errors.append(
                        f"leaf {where!r} (machine {node.machine!r}) has children"
                    )
                if node.protocols:
                    report.warnings.append(
                        f"leaf {where!r} carries protocols; intra-machine "
                        f"traffic uses the cluster loopback — they are ignored"
                    )
                seen[node.machine] = seen.get(node.machine, 0) + 1
                continue
            if not node.children:
                report.errors.append(
                    f"interior node {where!r} has neither children nor a machine"
                )
            if not node.protocols:
                report.errors.append(
                    f"level {where!r} has no protocols; pairs meeting at this "
                    f"level would have no transport"
                )
            if len(node.children) == 1:
                report.warnings.append(
                    f"level {where!r} has a single child; the level can never "
                    f"be a deepest common ancestor and only adds depth"
                )
        for name, count in seen.items():
            if count > 1:
                report.errors.append(
                    f"machine {name!r} appears {count} times in the topology"
                )

        # Advisory: a well-formed hierarchy gets *faster* as levels deepen
        # (WAN above LAN above switch); hierarchical collectives assume it.
        def best_time(protocols: tuple[Protocol, ...], nbytes: int) -> float:
            return min(p.transfer_time(nbytes) for p in protocols)

        probe = 1 << 16
        for path, node in self.root.walk():
            if node.is_leaf or not node.protocols:
                continue
            for i, child in enumerate(node.children):
                if child.is_leaf or not child.protocols:
                    continue
                if best_time(child.protocols, probe) > best_time(node.protocols, probe):
                    report.warnings.append(
                        f"level {child.name!r} is slower than its ancestor "
                        f"{node.name!r} for {probe}-byte messages; the "
                        f"hierarchy is inverted there"
                    )

        if cluster is not None:
            cluster_names = {m.name for m in cluster.machines}
            leaf_names = set(seen)
            for missing in sorted(cluster_names - leaf_names):
                report.errors.append(
                    f"cluster machine {missing!r} does not appear in the topology"
                )
            for extra in sorted(leaf_names - cluster_names):
                report.errors.append(
                    f"topology machine {extra!r} is not in the cluster"
                )
        return report

    # ------------------------------------------------------------------
    # binding to a cluster
    # ------------------------------------------------------------------
    def bind(self, cluster: "Cluster") -> None:
        """Index the tree against a cluster's machine order.

        Raises :class:`ClusterError` on validation errors (warnings pass).
        Normally called through :meth:`Cluster.set_topology`.
        """
        report = self.validate(cluster)
        if not report.ok:
            raise ClusterError(
                "invalid topology for cluster: " + "; ".join(report.errors)
            )
        paths: list[tuple[int, ...] | None] = [None] * cluster.size
        node_at: dict[tuple[int, ...], TopologyNode] = {}
        for path, node in self.root.walk():
            node_at[path] = node
            if node.is_leaf:
                paths[cluster.index_of(node.machine)] = path
        self._paths = [p for p in paths if p is not None]
        assert len(self._paths) == cluster.size
        self._node_at = node_at
        self._cluster = cluster

    def _require_bound(self) -> None:
        if self._cluster is None:
            raise ClusterError(
                "topology is not bound to a cluster; call Cluster.set_topology"
            )

    def path_of(self, machine_index: int) -> tuple[int, ...]:
        """Root-to-leaf child-index path of a machine."""
        self._require_bound()
        return self._paths[machine_index]

    def parent_key(self, machine_index: int) -> tuple[int, ...]:
        """Path of the machine's immediate parent level.

        Machines sharing a parent (and a speed) are fully interchangeable:
        their distances and pair protocols to every other machine are
        identical — the exhaustive mapper prunes on exactly this key.
        """
        return self.path_of(machine_index)[:-1]

    # ------------------------------------------------------------------
    # pair queries
    # ------------------------------------------------------------------
    def dca_depth(self, a: int, b: int) -> int:
        """Depth of the deepest common ancestor of two machines' leaves."""
        pa, pb = self.path_of(a), self.path_of(b)
        d = 0
        for x, y in zip(pa, pb):
            if x != y:
                break
            d += 1
        return d

    def dca_node(self, a: int, b: int) -> TopologyNode:
        """The deepest common ancestor level of two machines.

        For ``a == b`` this is the machine's own leaf (the pair is served
        by the cluster loopback, not by any level's protocols).
        """
        pa = self.path_of(a)
        return self._node_at[pa[: self.dca_depth(a, b)]]

    def distance(self, a: int, b: int) -> int:
        """Tree distance between two machines (0 for the same machine).

        The number of tree edges on the leaf-to-leaf path — the locality
        measure the mappers use: machines under one switch are closer than
        machines in different subnets, which are closer than different
        sites.
        """
        if a == b:
            return 0
        pa, pb = self.path_of(a), self.path_of(b)
        d = self.dca_depth(a, b)
        return (len(pa) - d) + (len(pb) - d)

    def pair_protocols(self, a: int, b: int) -> tuple[Protocol, ...]:
        """Protocols governing traffic between two distinct machines."""
        if a == b:
            raise ClusterError(
                "intra-machine traffic uses the cluster loopback, not a level"
            )
        return self.dca_node(a, b).protocols

    def pair_link(self, a: int, b: int) -> Link:
        """A link carrying the pair's deepest-common-ancestor protocols."""
        return Link(list(self.pair_protocols(a, b)))

    # ------------------------------------------------------------------
    # grouping (hierarchical collectives, locality heuristics)
    # ------------------------------------------------------------------
    def split(
        self, machines: Sequence[int]
    ) -> tuple[list[int], TopologyNode] | None:
        """Partition machines at the coarsest level where they diverge.

        Returns ``(keys, level)`` where ``keys[i]`` labels the subtree of
        ``machines[i]`` under the splitting ``level`` — the deepest node
        spanning all of them — or None when they never diverge (zero or
        one distinct machine).  Recursing on one key's subset descends the
        hierarchy level by level, which is how the hierarchical
        collectives build their leader trees.
        """
        self._require_bound()
        if not machines:
            return None
        paths = [self._paths[m] for m in machines]
        first = paths[0]
        depth = 0
        while True:
            if len(first) <= depth:
                return None  # reached a leaf: all on one machine
            head = first[depth]
            if any(len(p) <= depth or p[depth] != head for p in paths):
                break
            depth += 1
        keys = [p[depth] for p in paths]
        return keys, self._node_at[first[:depth]]

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """ASCII tree of the hierarchy with per-level protocols."""
        lines: list[str] = []

        def describe(node: TopologyNode) -> str:
            if node.is_leaf:
                return f"{node.machine}  [machine]"
            protos = ", ".join(
                f"{p.name} ({p.latency:g}s + B/{p.bandwidth:g})"
                for p in node.protocols
            )
            return f"{node.name}  [{node.kind}]  {protos}"

        def rec(node: TopologyNode, prefix: str, tail: bool, top: bool) -> None:
            if top:
                lines.append(describe(node))
            else:
                lines.append(f"{prefix}{'`-- ' if tail else '|-- '}{describe(node)}")
                prefix += "    " if tail else "|   "
            for i, child in enumerate(node.children):
                rec(child, prefix, i == len(node.children) - 1, False)

        rec(self.root, "", True, True)
        return "\n".join(lines)

    def __repr__(self) -> str:
        leaves = self.leaf_names()
        return (f"Topology(depth={self.depth}, levels={self._count_levels()}, "
                f"machines={len(leaves)})")

    def _count_levels(self) -> int:
        return sum(1 for _, n in self.root.walk() if not n.is_leaf)
