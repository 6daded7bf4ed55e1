"""The simulated heterogeneous network of computers (HNOC).

This package is the substrate substituting for the paper's physical testbed:
machines with heterogeneous speeds and multi-user load, links with
heterogeneous latency/bandwidth and multiple protocols, and fault injection.
"""

from .faults import (
    FaultSchedule,
    TransientFaultConfig,
    TransientLinkFaults,
    attach_transient_faults,
    inject_faults,
)
from .link import (
    FAST_INTERCONNECT,
    GIGABIT_ETHERNET,
    SHARED_MEMORY,
    TCP_100MBIT,
    WAN_10MBIT,
    Link,
    Protocol,
)
from .load import (
    NO_LOAD,
    ConstantLoad,
    DiurnalLoad,
    LoadModel,
    RandomWalkLoad,
    SquareWaveLoad,
    StepLoad,
)
from .machine import Machine
from .network import Cluster
from .serialize import cluster_from_spec, cluster_to_dict
from .presets import (
    CLUSTER_PRESETS,
    PAPER_SPEEDS,
    TOPOLOGY_PRESETS,
    clusters_of_clusters,
    homogeneous_network,
    multiprotocol_network,
    paper_network,
    random_network,
    two_site_network,
    uniform_network,
)
from .topology import (
    Topology,
    TopologyNode,
    TopologyReport,
)

__all__ = [
    "Machine",
    "Cluster",
    "Link",
    "Protocol",
    "TCP_100MBIT",
    "SHARED_MEMORY",
    "FAST_INTERCONNECT",
    "GIGABIT_ETHERNET",
    "WAN_10MBIT",
    "LoadModel",
    "ConstantLoad",
    "StepLoad",
    "SquareWaveLoad",
    "RandomWalkLoad",
    "DiurnalLoad",
    "NO_LOAD",
    "FaultSchedule",
    "TransientFaultConfig",
    "TransientLinkFaults",
    "attach_transient_faults",
    "inject_faults",
    "PAPER_SPEEDS",
    "cluster_to_dict",
    "cluster_from_spec",
    "paper_network",
    "homogeneous_network",
    "uniform_network",
    "random_network",
    "multiprotocol_network",
    "two_site_network",
    "clusters_of_clusters",
    "TOPOLOGY_PRESETS",
    "CLUSTER_PRESETS",
    "Topology",
    "TopologyNode",
    "TopologyReport",
]
