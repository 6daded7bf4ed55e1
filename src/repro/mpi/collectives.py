"""Collective-communication algorithms over the point-to-point layer.

Every collective is built from the substrate's sends/receives, so virtual
time accrues exactly as the underlying message pattern dictates — a
broadcast over a binomial tree on a heterogeneous network really does cost
the critical path through the tree's links.

Algorithms (the classic choices, all deterministic):

============  ==================================================
barrier       dissemination (ceil(log2 p) rounds) | hierarchical
bcast         binomial | flat | chain | hierarchical
reduce        mirrored binomial | flat | hierarchical
allreduce     reduce to rank 0 + bcast (same algorithm set)
gather(v)     linear into ``root`` (rank order)
scatter(v)    linear from ``root``
allgather     ring (p-1 steps) | hierarchical
alltoall      rotation schedule (p-1 steps, pairwise balanced)
scan          linear chain (inclusive prefix)
exscan        linear chain (exclusive prefix)
============  ==================================================

**Hierarchical algorithms** exploit the cluster's attached
:class:`~repro.cluster.topology.Topology` (when there is one): ranks are
partitioned by the coarsest topology level where their machines diverge
(site, then subnet, then switch), a *leader* per part carries all
cross-level traffic, and the pattern recurses within each part — so a
two-site broadcast crosses the slow wide-area link once per remote site
instead of wherever the flat tree happens to put edges.  Without a
topology (or when all ranks share one subtree) they degrade to the flat
defaults.

``algorithm="auto"`` picks per call: hierarchical when the topology
splits the ranks and crossing the split level is slower than talking
within a part, otherwise the best flat algorithm for the port model
(flat fan-out on contention-free switched networks, binomial under
single-port).  Unknown algorithm names raise
:class:`~repro.util.errors.MPICommError` uniformly across collectives.

Each invocation draws a fresh internal tag from its communicator so that
back-to-back collectives can never cross-match even under unusual
interleavings.  All ranks of a communicator must call the same collectives
in the same order (the MPI rule), which keeps those tag sequences aligned.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from ..util.errors import MPICommError
from ..util.options import check_choice
from .ops import Op

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.topology import TopologyNode
    from .communicator import Comm

__all__ = [
    "barrier", "bcast", "reduce", "allreduce", "gather", "scatter",
    "allgather", "alltoall", "scan", "exscan", "reduce_scatter_block",
    "BCAST_ALGORITHMS", "REDUCE_ALGORITHMS", "ALLGATHER_ALGORITHMS",
    "BARRIER_ALGORITHMS", "ALLREDUCE_ALGORITHMS",
]

BCAST_ALGORITHMS = ("binomial", "flat", "chain", "hierarchical", "auto")
REDUCE_ALGORITHMS = ("binomial", "flat", "hierarchical", "auto")
ALLREDUCE_ALGORITHMS = ("binomial", "flat", "hierarchical", "auto")
ALLGATHER_ALGORITHMS = ("ring", "hierarchical", "auto")
BARRIER_ALGORITHMS = ("dissemination", "hierarchical", "auto")

#: Message size assumed by ``auto`` when the caller doesn't charge an
#: explicit byte count (reduce/allgather payloads are pickled objects).
_AUTO_PROBE_NBYTES = 1024

#: ``auto`` goes hierarchical when crossing the topology's split level
#: costs at least this much more than talking within a part.
_AUTO_HIER_RATIO = 1.5


def _check_root(comm: "Comm", root: int) -> None:
    if not 0 <= root < comm.size:
        raise MPICommError(f"root {root} out of range for communicator size {comm.size}")


def _check_algorithm(coll: str, algorithm: str, allowed: Sequence[str]) -> None:
    """Uniform validation: every ``algorithm=`` accepting collective raises
    the same typed error (message shape shared with every registry-string
    option via :func:`repro.util.options.check_choice`)."""
    check_choice(f"{coll} algorithm", algorithm, allowed, exc=MPICommError)


# ----------------------------------------------------------------------
# topology plumbing shared by the hierarchical algorithms
# ----------------------------------------------------------------------

def _comm_machines(comm: "Comm", members: Sequence[int]) -> list[int]:
    """Machine index per communicator rank in ``members``."""
    placement = comm._engine.placement
    group = comm._group
    return [placement[group.world_rank(r)] for r in members]


def _split_parts(
    comm: "Comm", members: Sequence[int]
) -> "tuple[list[list[int]], TopologyNode] | None":
    """Partition ``members`` (comm ranks) by topology subtree.

    Uses the coarsest level where the members' machines diverge; returns
    ``(parts, level)`` with parts ordered by subtree (each part ascending),
    or None without a topology or when the machines never diverge.  Every
    rank computes the identical partition (it depends only on placement),
    which is what keeps the hierarchical schedules consistent.
    """
    topology = comm._engine.cluster.topology
    if topology is None:
        return None
    got = topology.split(_comm_machines(comm, members))
    if got is None:
        return None
    keys, level = got
    by_key: dict[int, list[int]] = {}
    for r, k in zip(members, keys):
        by_key.setdefault(k, []).append(r)
    return [by_key[k] for k in sorted(by_key)], level


def _record_algorithm(
    comm: "Comm", coll: str, algorithm: str, level: "TopologyNode | None"
) -> None:
    """Count the fired (collective, algorithm, split level) in the run's
    metrics registry (attached by the HMPI runtime's observability)."""
    metrics = getattr(comm._engine, "metrics", None)
    if metrics is not None:
        metrics.counter(
            "hmpi.coll.algorithm", coll=coll, algorithm=algorithm,
            level=level.name if level is not None else "-",
        ).inc()
        metrics.mark_vtime(comm._engine.vtime(comm._world_rank))


def _choose_auto(
    comm: "Comm", coll: str, nbytes: int | None
) -> "tuple[str, TopologyNode | None]":
    """Pick an algorithm from the topology, port model and message size.

    Hierarchical when the ranks split across a topology level whose
    crossing cost dominates intra-part traffic; otherwise the best flat
    choice for the port model: trees when a sender's port serialises its
    transfers (single-port), fan-out/ring on the paper's contention-free
    switch.
    """
    engine = comm._engine
    if coll == "allgather":
        flat = "ring"
    elif coll == "barrier":
        flat = "dissemination"
    else:
        flat = "binomial" if engine.cluster.single_port else "flat"
    members = list(range(comm.size))
    got = _split_parts(comm, members)
    if got is None:
        return flat, None
    parts, level = got
    if not any(len(p) > 1 for p in parts):
        # One rank per subtree: the leader phase IS the whole collective,
        # and a flat algorithm does the same work without the detour.
        return flat, level
    nb = nbytes if nbytes else _AUTO_PROBE_NBYTES
    inter = min(p.transfer_time(nb) for p in level.protocols)
    intra = 0.0
    cluster = engine.cluster
    for part in parts:
        if len(part) < 2:
            continue
        machines = _comm_machines(comm, part[:2])
        intra = max(intra, cluster.transfer_time(machines[0], machines[1], nb))
    if inter >= _AUTO_HIER_RATIO * intra:
        return "hierarchical", level
    return flat, level


def _virtual_order(members: Sequence[int], root: int) -> list[int]:
    """Members rotated so ``root`` comes first (binomial virtual ranks)."""
    i = list(members).index(root)
    return list(members[i:]) + list(members[:i])


def _bcast_members(
    comm: "Comm", obj: Any, order: Sequence[int], tag: int, nbytes: int | None
) -> Any:
    """Binomial broadcast over an arbitrary rank list (root = order[0]).

    Ranks outside ``order`` return ``obj`` unchanged — callers invoke this
    unconditionally so every rank walks the same schedule.
    """
    size = len(order)
    if size <= 1 or comm.rank not in order:
        return obj
    v = order.index(comm.rank)
    mask = 1
    while mask < size:
        if v & mask:
            obj = comm._recv_internal(order[v - mask], tag)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if v + mask < size:
            comm._send_internal(obj, order[v + mask], tag, nbytes=nbytes)
        mask >>= 1
    return obj


def _reduce_members(
    comm: "Comm", acc: Any, op: Op, order: Sequence[int], tag: int
) -> Any:
    """Mirrored binomial reduction over an arbitrary rank list.

    Returns the combined value at ``order[0]``; the accumulator each
    non-root contributed elsewhere (callers discard it).  Ranks outside
    ``order`` pass through.
    """
    size = len(order)
    if size <= 1 or comm.rank not in order:
        return acc
    v = order.index(comm.rank)
    mask = 1
    while mask < size:
        if v & mask:
            comm._send_internal(acc, order[v & ~mask], tag)
            break
        child = v | mask
        if child < size:
            val = comm._recv_internal(order[child], tag)
            acc = op(acc, val)
        mask <<= 1
    return acc


def _descend(
    comm: "Comm", members: list[int], cur_root: int
) -> "tuple[list[list[int]], list[int], list[int], int] | None":
    """One level of the leader hierarchy below ``members``.

    Returns ``(parts, leader_order, my_part, my_leader)`` or None when the
    members no longer split.  The leader of the root's part is the root
    itself (so data never takes a detour); other parts elect their lowest
    rank.  ``leader_order`` is rotated root-first for the binomial phases.
    """
    got = _split_parts(comm, members)
    if got is None:
        return None
    parts, _ = got
    leaders = [cur_root if cur_root in part else part[0] for part in parts]
    my_part = next(part for part in parts if comm.rank in part)
    my_leader = leaders[parts.index(my_part)]
    return parts, _virtual_order(leaders, cur_root), my_part, my_leader


def barrier(comm: "Comm", algorithm: str = "dissemination") -> None:
    """Barrier: after return, every rank's clock is >= the virtual time at
    which the last rank entered (up to message latencies).

    ``algorithm``: ``"dissemination"`` (default, ceil(log2 p) rounds),
    ``"hierarchical"`` (gather to subnet leaders, disseminate among
    leaders, release locally — each slow level is crossed O(log sites)
    times instead of O(p log p)), or ``"auto"``.
    """
    _check_algorithm("barrier", algorithm, BARRIER_ALGORITHMS)
    level = None
    if algorithm == "auto":
        algorithm, level = _choose_auto(comm, "barrier", None)
    if algorithm == "hierarchical" and level is None:
        got = _split_parts(comm, list(range(comm.size)))
        level = got[1] if got else None
    _record_algorithm(comm, "barrier", algorithm, level)
    if algorithm == "hierarchical":
        return _barrier_hierarchical(comm)
    tag = comm._next_coll_tag()
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    k = 1
    while k < size:
        dst = (rank + k) % size
        src = (rank - k) % size
        comm._send_internal(None, dst, tag, nbytes=1)
        comm._recv_internal(src, tag)
        k *= 2


def _barrier_hierarchical(comm: "Comm") -> None:
    """Leader barrier: local arrival, leader dissemination, local release."""
    tag = comm._next_coll_tag()
    if comm.size == 1:
        return
    got = _split_parts(comm, list(range(comm.size)))
    if got is None:
        return _dissemination(comm, list(range(comm.size)), tag)
    parts, _ = got
    leaders = [part[0] for part in parts]
    my_part = next(part for part in parts if comm.rank in part)
    leader = my_part[0]
    if comm.rank == leader:
        for r in my_part[1:]:
            comm._recv_internal(r, tag)
        _dissemination(comm, leaders, tag)
        for r in my_part[1:]:
            comm._send_internal(None, r, tag, nbytes=1)
    else:
        comm._send_internal(None, leader, tag, nbytes=1)
        comm._recv_internal(leader, tag)


def _dissemination(comm: "Comm", members: Sequence[int], tag: int) -> None:
    """Dissemination rounds over an arbitrary member list."""
    size = len(members)
    if size <= 1 or comm.rank not in members:
        return
    pos = list(members).index(comm.rank)
    k = 1
    while k < size:
        comm._send_internal(None, members[(pos + k) % size], tag, nbytes=1)
        comm._recv_internal(members[(pos - k) % size], tag)
        k *= 2


def bcast(comm: "Comm", obj: Any, root: int = 0, nbytes: int | None = None,
          algorithm: str = "binomial") -> Any:
    """Broadcast; returns the root's object on every rank.

    ``algorithm`` selects the message pattern — the right choice depends
    on the network's port model:

    - ``"binomial"`` (default): log2(p) rounds; the classic compromise.
    - ``"flat"``: the root sends to everyone directly.  Optimal on a
      contention-free switched network (distinct pairs transfer in
      parallel), poor under the single-port model (the root serialises
      p-1 transfers).
    - ``"chain"``: rank-order pipeline; p-1 sequential hops.  The
      fewest sends per node, useful under single-port when combined with
      segmentation; here mostly a teaching baseline.
    - ``"hierarchical"``: leaders relay across each topology level, then
      the broadcast recurses within their parts — the slow level is
      crossed once per remote subtree.
    - ``"auto"``: per-call selection from topology and port model.
    """
    _check_algorithm("bcast", algorithm, BCAST_ALGORITHMS)
    _check_root(comm, root)
    level = None
    if algorithm == "auto":
        algorithm, level = _choose_auto(comm, "bcast", nbytes)
    if algorithm == "hierarchical" and level is None:
        got = _split_parts(comm, list(range(comm.size)))
        level = got[1] if got else None
    _record_algorithm(comm, "bcast", algorithm, level)
    if algorithm == "flat":
        return _bcast_flat(comm, obj, root, nbytes)
    if algorithm == "chain":
        return _bcast_chain(comm, obj, root, nbytes)
    if algorithm == "hierarchical":
        return _bcast_hierarchical(comm, obj, root, nbytes)
    tag = comm._next_coll_tag()
    size, rank = comm.size, comm.rank
    if size == 1:
        return obj
    vrank = (rank - root) % size  # virtual rank: root becomes 0
    # Receive phase: every non-root receives exactly once, from the peer
    # that differs in its lowest set bit.
    mask = 1
    while mask < size:
        if vrank & mask:
            parent = (rank - mask) % size
            obj = comm._recv_internal(parent, tag)
            break
        mask <<= 1
    # Send phase: forward to peers at decreasing distances.
    mask >>= 1
    while mask > 0:
        if vrank + mask < size:
            comm._send_internal(obj, (rank + mask) % size, tag, nbytes=nbytes)
        mask >>= 1
    return obj


def _bcast_flat(comm: "Comm", obj: Any, root: int, nbytes: int | None) -> Any:
    """Root sends to every other rank directly."""
    _check_root(comm, root)
    tag = comm._next_coll_tag()
    if comm.size == 1:
        return obj
    if comm.rank == root:
        for r in range(comm.size):
            if r != root:
                comm._send_internal(obj, r, tag, nbytes=nbytes)
        return obj
    value = comm._recv_internal(root, tag)
    return value


def _bcast_chain(comm: "Comm", obj: Any, root: int, nbytes: int | None) -> Any:
    """Pipeline along virtual rank order rooted at ``root``."""
    _check_root(comm, root)
    tag = comm._next_coll_tag()
    size, rank = comm.size, comm.rank
    if size == 1:
        return obj
    vrank = (rank - root) % size
    if vrank != 0:
        obj = comm._recv_internal((rank - 1) % size, tag)
    if vrank != size - 1:
        comm._send_internal(obj, (rank + 1) % size, tag, nbytes=nbytes)
    return obj


def _bcast_hierarchical(comm: "Comm", obj: Any, root: int, nbytes: int | None) -> Any:
    """Top-down leader relay: broadcast among level leaders, descend into
    the own part, repeat until the members no longer split."""
    tag = comm._next_coll_tag()
    members = list(range(comm.size))
    cur_root = root
    while len(members) > 1:
        got = _descend(comm, members, cur_root)
        if got is None:
            # Flat remainder (or no topology at all): one binomial tree.
            return _bcast_members(
                comm, obj, _virtual_order(members, cur_root), tag, nbytes
            )
        _parts, leader_order, my_part, my_leader = got
        obj = _bcast_members(comm, obj, leader_order, tag, nbytes)
        members, cur_root = my_part, my_leader
    return obj


def reduce(comm: "Comm", obj: Any, op: Op, root: int = 0,
           algorithm: str = "binomial") -> Any:
    """Reduction toward ``root``; returns the result at root, None elsewhere.

    ``algorithm``: ``"binomial"`` (default, mirrored binomial tree),
    ``"flat"`` (every rank sends straight to root — optimal on a
    contention-free switch where the root's receives overlap),
    ``"hierarchical"`` (combine within each topology part, then leaders
    combine across the level — one message per part crosses the slow
    link), or ``"auto"``.
    """
    _check_algorithm("reduce", algorithm, REDUCE_ALGORITHMS)
    _check_root(comm, root)
    level = None
    if algorithm == "auto":
        algorithm, level = _choose_auto(comm, "reduce", None)
    if algorithm == "hierarchical" and level is None:
        got = _split_parts(comm, list(range(comm.size)))
        level = got[1] if got else None
    _record_algorithm(comm, "reduce", algorithm, level)
    if algorithm == "flat":
        return _reduce_flat(comm, obj, op, root)
    if algorithm == "hierarchical":
        return _reduce_hierarchical(comm, obj, op, root)
    tag = comm._next_coll_tag()
    size, rank = comm.size, comm.rank
    if size == 1:
        return obj
    vrank = (rank - root) % size
    acc = obj
    mask = 1
    while mask < size:
        if vrank & mask:
            parent = ((vrank & ~mask) + root) % size
            comm._send_internal(acc, parent, tag)
            break
        child_v = vrank | mask
        if child_v < size:
            child_val = comm._recv_internal((child_v + root) % size, tag)
            acc = op(acc, child_val)
        mask <<= 1
    return acc if rank == root else None


def _reduce_flat(comm: "Comm", obj: Any, op: Op, root: int) -> Any:
    """Every non-root sends directly to root; root combines in rank order."""
    tag = comm._next_coll_tag()
    if comm.size == 1:
        return obj
    if comm.rank != root:
        comm._send_internal(obj, root, tag)
        return None
    acc = None
    for r in range(comm.size):
        val = obj if r == root else comm._recv_internal(r, tag)
        acc = val if acc is None else op(acc, val)
    return acc


def _reduce_hierarchical(comm: "Comm", obj: Any, op: Op, root: int) -> Any:
    """Bottom-up leader relay: combine within each part first, then the
    leaders combine across the level toward ``root``."""
    tag = comm._next_coll_tag()
    return _reduce_hier_members(comm, obj, op, list(range(comm.size)), root, tag)


def _reduce_hier_members(
    comm: "Comm", acc: Any, op: Op, members: list[int], cur_root: int, tag: int
) -> Any:
    if len(members) <= 1:
        return acc if comm.rank == cur_root else None
    got = _descend(comm, members, cur_root)
    if got is None:
        acc = _reduce_members(
            comm, acc, op, _virtual_order(members, cur_root), tag
        )
        return acc if comm.rank == cur_root else None
    _parts, leader_order, my_part, my_leader = got
    acc = _reduce_hier_members(comm, acc, op, my_part, my_leader, tag)
    if comm.rank == my_leader:
        acc = _reduce_members(comm, acc, op, leader_order, tag)
    return acc if comm.rank == cur_root else None


def allreduce(comm: "Comm", obj: Any, op: Op, algorithm: str = "binomial") -> Any:
    """Reduce to rank 0, then broadcast the result to everyone.

    ``algorithm`` is forwarded to both phases (``"auto"`` resolves
    independently per phase, which is deliberate — the two patterns can
    have different best answers for the same network).
    """
    _check_algorithm("allreduce", algorithm, ALLREDUCE_ALGORITHMS)
    partial = reduce(comm, obj, op, root=0, algorithm=algorithm)
    return bcast(comm, partial, root=0, algorithm=algorithm)


def gather(comm: "Comm", obj: Any, root: int = 0) -> list[Any] | None:
    """Linear gather; root returns the list indexed by rank, others None."""
    _check_root(comm, root)
    tag = comm._next_coll_tag()
    if comm.rank == root:
        out: list[Any] = [None] * comm.size
        out[root] = obj
        for r in range(comm.size):
            if r != root:
                out[r] = comm._recv_internal(r, tag)
        return out
    comm._send_internal(obj, root, tag)
    return None


def scatter(comm: "Comm", objs: list[Any] | None, root: int = 0) -> Any:
    """Linear scatter; rank r receives ``objs[r]`` from root."""
    _check_root(comm, root)
    tag = comm._next_coll_tag()
    if comm.rank == root:
        if objs is None or len(objs) != comm.size:
            raise MPICommError(
                f"scatter at root needs a list of length {comm.size}"
            )
        for r in range(comm.size):
            if r != root:
                comm._send_internal(objs[r], r, tag)
        return objs[root]
    value = comm._recv_internal(root, tag)
    return value


def allgather(comm: "Comm", obj: Any, algorithm: str = "ring") -> list[Any]:
    """Allgather; every rank returns the list indexed by rank.

    ``algorithm``: ``"ring"`` (default, p-1 steps each forwarding the
    newest block), ``"hierarchical"`` (gather each topology part to its
    leader, ring over leaders exchanging whole part blocks, then
    broadcast the table within each part — the slow level carries
    O(parts) messages instead of O(p)), or ``"auto"``.
    """
    _check_algorithm("allgather", algorithm, ALLGATHER_ALGORITHMS)
    level = None
    if algorithm == "auto":
        algorithm, level = _choose_auto(comm, "allgather", None)
    if algorithm == "hierarchical" and level is None:
        got = _split_parts(comm, list(range(comm.size)))
        level = got[1] if got else None
    _record_algorithm(comm, "allgather", algorithm, level)
    tag = comm._next_coll_tag()
    if algorithm == "hierarchical":
        return _allgather_hierarchical(comm, obj, tag)
    return _allgather_ring(comm, obj, tag)


def _allgather_ring(comm: "Comm", obj: Any, tag: int) -> list[Any]:
    size, rank = comm.size, comm.rank
    out: list[Any] = [None] * size
    out[rank] = obj
    if size == 1:
        return out
    right = (rank + 1) % size
    left = (rank - 1) % size
    carry_index = rank
    for _ in range(size - 1):
        comm._send_internal((carry_index, out[carry_index]), right, tag)
        recv_index, value = comm._recv_internal(left, tag)
        out[recv_index] = value
        carry_index = recv_index
    return out


def _allgather_hierarchical(comm: "Comm", obj: Any, tag: int) -> list[Any]:
    """Gather-to-leader, leader ring of part blocks, local broadcast."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return [obj]
    got = _split_parts(comm, list(range(size)))
    if got is None:
        return _allgather_ring(comm, obj, tag)
    parts, _ = got
    my_part = next(part for part in parts if rank in part)
    leader = my_part[0]
    # Phase 1: each part gathers its contributions at the leader.
    blocks: dict[int, Any] | None
    if rank == leader:
        blocks = {rank: obj}
        for r in my_part[1:]:
            blocks[r] = comm._recv_internal(r, tag)
    else:
        comm._send_internal(obj, leader, tag)
        blocks = None
    # Phase 2: leaders circulate whole part blocks around a ring.
    leaders = [part[0] for part in parts]
    if rank == leader and len(leaders) > 1:
        pos = leaders.index(leader)
        right = leaders[(pos + 1) % len(leaders)]
        left = leaders[(pos - 1) % len(leaders)]
        assert blocks is not None
        carry = blocks
        blocks = dict(blocks)
        for _ in range(len(leaders) - 1):
            comm._send_internal(carry, right, tag)
            carry = comm._recv_internal(left, tag)
            blocks.update(carry)
    # Phase 3: leaders broadcast the assembled table within their part.
    blocks = _bcast_members(comm, blocks, my_part, tag, None)
    out: list[Any] = [None] * size
    assert blocks is not None
    for r, value in blocks.items():
        out[r] = value
    return out


def alltoall(comm: "Comm", objs: list[Any]) -> list[Any]:
    """Rotation-schedule personalized all-to-all.

    At step k each rank sends to ``(rank+k) % p`` and receives from
    ``(rank-k) % p``, which pairs every rank with every other exactly once
    and keeps the pattern contention-balanced.
    """
    size, rank = comm.size, comm.rank
    if objs is None or len(objs) != size:
        raise MPICommError(f"alltoall needs a list of length {size}")
    tag = comm._next_coll_tag()
    out: list[Any] = [None] * size
    out[rank] = objs[rank]
    for k in range(1, size):
        dst = (rank + k) % size
        src = (rank - k) % size
        comm._send_internal(objs[dst], dst, tag)
        out[src] = comm._recv_internal(src, tag)
    return out


def scan(comm: "Comm", obj: Any, op: Op) -> Any:
    """Inclusive prefix reduction along the rank order (linear chain)."""
    tag = comm._next_coll_tag()
    acc = obj
    if comm.rank > 0:
        prev = comm._recv_internal(comm.rank - 1, tag)
        acc = op(prev, acc)
    if comm.rank < comm.size - 1:
        comm._send_internal(acc, comm.rank + 1, tag)
    return acc


def exscan(comm: "Comm", obj: Any, op: Op) -> Any:
    """Exclusive prefix reduction; rank 0 receives None (MPI leaves it
    undefined there)."""
    tag = comm._next_coll_tag()
    prev: Any = None
    if comm.rank > 0:
        prev = comm._recv_internal(comm.rank - 1, tag)
    if comm.rank < comm.size - 1:
        here = obj if prev is None else op(prev, obj)
        comm._send_internal(here, comm.rank + 1, tag)
    return prev


def reduce_scatter_block(comm: "Comm", objs: list[Any], op: Op) -> Any:
    """Reduce ``objs`` elementwise across ranks, rank r keeping element r.

    Implemented as reduce-to-0 of the whole list followed by a scatter —
    simple and adequate for the message volumes our applications use.
    """
    size = comm.size
    if objs is None or len(objs) != size:
        raise MPICommError(f"reduce_scatter_block needs a list of length {size}")
    combined = reduce(comm, objs, Op(op.name, lambda a, b, _op=op: [_op(x, y) for x, y in zip(a, b)]), root=0)
    return scatter(comm, combined, root=0)
