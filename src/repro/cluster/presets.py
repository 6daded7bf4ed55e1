"""Ready-made clusters, including the paper's testbed.

The experiments in Section 5 of the paper ran on "a small heterogeneous
local network of 9 different Solaris and Linux workstations" whose measured
speeds on the applications' core computations were::

    46, 46, 46, 46, 46, 46, 176, 106, 9

connected by 100 Mbit switched Ethernet.  (The matrix-multiplication
paragraph lists only eight numbers — 46 x 6, 106, 9 — which is an apparent
typo since the same 9-machine network is described; we reuse the full
9-speed set for both applications and note the discrepancy in
EXPERIMENTS.md.)
"""

from __future__ import annotations

from collections.abc import Sequence

from ..util.rng import make_rng
from .link import (
    FAST_INTERCONNECT,
    GIGABIT_ETHERNET,
    SHARED_MEMORY,
    TCP_100MBIT,
    WAN_10MBIT,
    Link,
    Protocol,
)
from .machine import Machine
from .network import Cluster
from .topology import Topology, TopologyNode

__all__ = [
    "PAPER_SPEEDS",
    "paper_network",
    "homogeneous_network",
    "uniform_network",
    "random_network",
    "multiprotocol_network",
    "two_site_network",
    "clusters_of_clusters",
    "TOPOLOGY_PRESETS",
]

#: Measured speeds of the paper's nine workstations (benchmark units / sec).
PAPER_SPEEDS: tuple[float, ...] = (46, 46, 46, 46, 46, 46, 176, 106, 9)

#: OS mix matching "Solaris and Linux workstations" (cosmetic only).
_PAPER_OS: tuple[str, ...] = (
    "solaris", "solaris", "linux", "linux", "solaris",
    "linux", "linux", "solaris", "linux",
)


def paper_network(speeds: Sequence[float] = PAPER_SPEEDS) -> Cluster:
    """The paper's 9-workstation 100 Mbit switched-Ethernet network.

    Every inter-machine pair shares identical TCP links; ranks co-located on
    one machine use shared memory, mirroring the MPICH behaviour the paper
    cites as the one standard exception to single-protocol MPI.
    """
    machines = [
        Machine(name=f"ws{i:02d}", speed=s, os=_PAPER_OS[i % len(_PAPER_OS)])
        for i, s in enumerate(speeds)
    ]
    return Cluster(machines, default_protocols=(TCP_100MBIT,))


def homogeneous_network(n: int, speed: float = 100.0) -> Cluster:
    """``n`` identical machines — the control case where HMPI ≡ MPI."""
    machines = [Machine(name=f"node{i:02d}", speed=speed) for i in range(n)]
    return Cluster(machines, default_protocols=(TCP_100MBIT,))


def uniform_network(speeds: Sequence[float], name_prefix: str = "m") -> Cluster:
    """Machines with the given speeds and uniform default TCP links."""
    machines = [Machine(name=f"{name_prefix}{i:02d}", speed=s) for i, s in enumerate(speeds)]
    return Cluster(machines, default_protocols=(TCP_100MBIT,))


def random_network(
    n: int,
    seed: int = 0,
    speed_range: tuple[float, float] = (10.0, 200.0),
    latency_range: tuple[float, float] = (5e-5, 5e-4),
    bandwidth_range: tuple[float, float] = (5e6, 5e7),
) -> Cluster:
    """A fully random HNOC: heterogeneous speeds *and* heterogeneous links.

    Used by property-based tests and robustness sweeps; deterministic given
    ``seed``.  Links are symmetric per unordered pair.
    """
    rng = make_rng(seed)
    machines = [
        Machine(name=f"rnd{i:02d}", speed=float(rng.uniform(*speed_range)))
        for i in range(n)
    ]
    cluster = Cluster(machines, default_protocols=(TCP_100MBIT,))
    for i in range(n):
        for j in range(i + 1, n):
            proto = Protocol(
                name=f"tcp-{i}-{j}",
                latency=float(rng.uniform(*latency_range)),
                bandwidth=float(rng.uniform(*bandwidth_range)),
            )
            cluster.set_link(i, j, Link.single(proto), symmetric=True)
    return cluster


def multiprotocol_network(
    speeds: Sequence[float] = PAPER_SPEEDS,
    fast_pairs: Sequence[tuple[int, int]] = ((6, 7), (0, 1), (2, 3)),
) -> Cluster:
    """Paper network plus a faster interconnect on selected pairs.

    Models the multi-protocol challenge: the named pairs can talk over both
    TCP and a fast transport, and the library picks the faster per message.
    Pinning all links to ``"tcp-100mbit"`` recovers the single-protocol
    baseline (the multi-protocol ablation in EXPERIMENTS.md).
    """
    cluster = paper_network(speeds)
    for i, j in fast_pairs:
        cluster.set_link(i, j, Link([TCP_100MBIT, FAST_INTERCONNECT]), symmetric=True)
    return cluster


# ----------------------------------------------------------------------
# hierarchical (multi-cluster) presets
# ----------------------------------------------------------------------

def two_site_network(
    machines_per_site: int = 4,
    speed: float = 100.0,
    site_protocol: Protocol = GIGABIT_ETHERNET,
    wan_protocol: Protocol = WAN_10MBIT,
) -> Cluster:
    """Two equal-speed sites (subnets) joined by a slow wide-area link.

    The canonical clusters-of-clusters scenario (MPICH-G2's motivating
    case): within a site machines talk over a fast switch, between sites
    every message crosses the WAN.  Equal machine speeds isolate the
    *communication* hierarchy — a compute-balancing mapper sees no
    difference between machines, so only topology locality can make
    ``HMPI_Group_create`` keep a group inside one site, and only
    hierarchical collectives can avoid redundant WAN crossings.
    """
    if machines_per_site < 2:
        raise ValueError("two_site_network needs >= 2 machines per site")
    machines = [
        Machine(name=f"s{s}m{i:02d}", speed=speed)
        for s in range(2)
        for i in range(machines_per_site)
    ]
    sites = [
        TopologyNode(
            name=f"site{s}", kind="subnet", protocols=(site_protocol,),
            children=tuple(
                TopologyNode.leaf(f"s{s}m{i:02d}")
                for i in range(machines_per_site)
            ),
        )
        for s in range(2)
    ]
    topo = Topology(TopologyNode(
        name="wan", kind="site", protocols=(wan_protocol,),
        children=tuple(sites),
    ))
    return Cluster(machines, default_protocols=(wan_protocol,), topology=topo)


def clusters_of_clusters(
    sites: int = 2,
    subnets_per_site: int = 2,
    machines_per_subnet: int = 2,
    speeds: Sequence[float] | None = None,
    switch_protocol: Protocol = GIGABIT_ETHERNET,
    lan_protocol: Protocol = TCP_100MBIT,
    wan_protocol: Protocol = WAN_10MBIT,
) -> Cluster:
    """A three-level hierarchy: WAN over sites, LAN over subnets, switches.

    ``speeds``, when given, is one speed per machine in site-major order
    (default: all 100).  Each deeper level is faster (WAN < LAN < switch),
    the shape hierarchical algorithms assume.
    """
    n = sites * subnets_per_site * machines_per_subnet
    if speeds is None:
        speeds = [100.0] * n
    if len(speeds) != n:
        raise ValueError(f"need {n} speeds, got {len(speeds)}")
    machines: list[Machine] = []
    site_nodes: list[TopologyNode] = []
    k = 0
    for s in range(sites):
        subnet_nodes: list[TopologyNode] = []
        for b in range(subnets_per_site):
            leaves: list[TopologyNode] = []
            for _ in range(machines_per_subnet):
                name = f"s{s}n{b}m{k:02d}"
                machines.append(Machine(name=name, speed=float(speeds[k])))
                leaves.append(TopologyNode.leaf(name))
                k += 1
            subnet_nodes.append(TopologyNode(
                name=f"s{s}n{b}", kind="switch",
                protocols=(switch_protocol,), children=tuple(leaves),
            ))
        site_nodes.append(TopologyNode(
            name=f"site{s}", kind="subnet", protocols=(lan_protocol,),
            children=tuple(subnet_nodes),
        ))
    topo = Topology(TopologyNode(
        name="wan", kind="site", protocols=(wan_protocol,),
        children=tuple(site_nodes),
    ))
    return Cluster(machines, default_protocols=(wan_protocol,), topology=topo)


#: Topology-annotated presets by name (CLI `repro topology show/check`).
TOPOLOGY_PRESETS = {
    "two_site": two_site_network,
    "clusters_of_clusters": clusters_of_clusters,
}
