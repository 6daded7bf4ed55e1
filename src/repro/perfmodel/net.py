"""Lowering PMDL schemes to place/transition communication nets.

A bound model's ``scheme`` is an imperative program, but (as the MP-net
line of work observes) everything it *does* is communication structure:
computations, transfers, and ``par``/``seq`` composition.  This module
unrolls one concrete binding of a scheme into an explicit net:

- **transitions** — one per compute action (``e%%[i]``), one per transfer
  action (``e%%[i]->[j]``), plus a fork/join pair per dynamic ``par``
  instance;
- **places** — the per-process sequencing states between consecutive
  transitions of the same process, one *message place* per material
  transfer (its token moves from sender to receiver), and the initial
  marking place of each participating process.

The unroll is one more sink over the model's own scheme walk: the
generated executor (:mod:`repro.perfmodel.codegen`) reports the structural
hooks of :class:`~repro.perfmodel.model.LinearActionVisitor`
(``enter_par`` and friends) beside the actions, so every
``AbstractBoundModel`` lowers — DSL models, builder models, and the
scheme-less default walk alike.  A walk that would unroll past a cap
stops at the first event beyond it (:class:`NetTooLarge`).

Concurrency is series-parallel: each event carries the dynamic ``par``
path it was emitted under, and two events are concurrent exactly when
the first point where their paths diverge is two different branches of
the same ``par`` instance.  Everything else follows emission order.
From that order the net derives its **wait graph** — per-process chain
edges plus message edges from each material transfer to the receive
(compute) that consumes it — which is what the PM08x checks in
:mod:`repro.perfmodel.netcheck` analyze and what :meth:`CommNet.to_dot`
renders.

The same kept-event sequence, in the same order, is what
:class:`repro.core.seleng.CompiledTrace` compiles, which is why the
``NetTimeof`` evaluator can price candidates by longest path over this
structure and agree bitwise with the timeline oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from io import StringIO

from ..util.errors import PMDLError
from .model import AbstractBoundModel, LinearActionVisitor

__all__ = ["NetEvent", "ParInstance", "CommNet", "NetTooLarge", "lower_model"]

#: Beyond this many unrolled events the checks in ``netcheck`` skip with
#: PM084 instead of risking a quadratic blow-up on a pathological binding.
MAX_NET_EVENTS = 20_000


class NetTooLarge(PMDLError):
    """The scheme unrolls to more events than the lowering's cap."""


@dataclass(frozen=True)
class NetEvent:
    """One unrolled transition of the net.

    ``kind`` is ``"compute"`` or ``"transfer"``; ``a`` is the acting
    (compute/source) processor and ``b`` the destination (transfers only,
    else ``-1``).  ``volume`` is benchmark units for computes and bytes
    for transfers.  ``kept`` mirrors the selection engine's drop rule:
    zero-byte and self transfers move no clock and take part in no wait.
    ``path`` is the dynamic ``par`` nesting — a tuple of
    ``(par_instance_id, branch_index)`` pairs, outermost first.
    """

    idx: int
    kind: str
    line: int
    percent: float
    a: int
    b: int
    volume: float
    kept: bool
    path: tuple[tuple[int, int], ...]

    @property
    def is_transfer(self) -> bool:
        return self.kind == "transfer"

    def label(self) -> str:
        where = f"{self.a}->{self.b}" if self.is_transfer else f"{self.a}"
        at = f" (line {self.line})" if self.line else ""
        return f"{self.percent:g}%%[{where}]{at}"


@dataclass(frozen=True)
class ParInstance:
    """One dynamic ``par`` loop instance (a fork/join transition pair)."""

    pid: int
    line: int
    depth: int
    branches: int


class _NetRecorder(LinearActionVisitor):
    """Records actions with their source line and dynamic ``par`` path."""

    def __init__(self, model: AbstractBoundModel, max_events: int | None = None):
        self._nv = model.node_volumes()
        self._lv = model.link_volumes()
        self._max = max_events
        self.events: list[NetEvent] = []
        self.pars: dict[int, ParInstance] = {}
        self._stack: list[list[int]] = []  # [pid, branch, line] per open par
        self._line = 0
        self._next_pid = 0

    # -- structure hooks ------------------------------------------------
    def enter_par(self, line: int) -> None:
        pid = self._next_pid
        self._next_pid += 1
        self._stack.append([pid, -1, line])

    def next_par_branch(self, line: int) -> None:
        self._stack[-1][1] += 1

    def exit_par(self, line: int) -> None:
        pid, branch, at = self._stack.pop()
        self.pars[pid] = ParInstance(
            pid=pid, line=at, depth=len(self._stack), branches=branch + 1
        )

    def at_line(self, line: int) -> None:
        self._line = line

    def _path(self) -> tuple[tuple[int, int], ...]:
        return tuple((pid, branch) for pid, branch, _ in self._stack)

    # -- actions ---------------------------------------------------------
    def _check_size(self) -> None:
        if self._max is not None and len(self.events) >= self._max:
            raise NetTooLarge(
                f"the scheme unrolls to more than {self._max} events")

    def compute(self, percent: float, proc: int) -> None:
        self._check_size()
        volume = (percent / 100.0) * float(self._nv[proc])
        self.events.append(NetEvent(
            idx=len(self.events), kind="compute", line=self._line,
            percent=percent, a=proc, b=-1, volume=volume, kept=True,
            path=self._path(),
        ))
        self._line = 0

    def transfer(self, percent: float, src: int, dst: int) -> None:
        self._check_size()
        nbytes = (percent / 100.0) * float(self._lv[src, dst])
        kept = nbytes != 0.0 and src != dst
        self.events.append(NetEvent(
            idx=len(self.events), kind="transfer", line=self._line,
            percent=percent, a=src, b=dst, volume=nbytes, kept=kept,
            path=self._path(),
        ))
        self._line = 0


class CommNet:
    """The unrolled place/transition net of one bound model.

    Built by :func:`lower_model`.  Exposes the series-parallel
    concurrency order (:meth:`concurrent`, :meth:`ordered_before`), the
    wait graph (:meth:`chain_edges`, :meth:`match_receives`,
    :meth:`wait_edges`), cycle detection (:meth:`find_cycle`), and DOT
    export (:meth:`to_dot`).
    """

    def __init__(self, nproc: int, events: list[NetEvent],
                 pars: dict[int, ParInstance]):
        self.nproc = nproc
        self.events = events
        self.pars = pars
        self.kept = [e for e in events if e.kept]
        #: kept events per owning processor chain (transfers block their
        #: sender; the receiver's wait is a message edge, not a chain slot)
        self.proc_chain: dict[int, list[NetEvent]] = {}
        for e in self.kept:
            self.proc_chain.setdefault(e.a, []).append(e)
        self._chain_edges: list[tuple[int, int]] | None = None
        self._receives: dict[int, int | None] | None = None

    # ------------------------------------------------------------------
    # series-parallel concurrency order
    # ------------------------------------------------------------------
    def concurrent(self, x: NetEvent, y: NetEvent) -> bool:
        """True when the net orders neither event before the other."""
        for (pa, ba), (pb, bb) in zip(x.path, y.path):
            if pa != pb:
                return False  # different par instances compose in sequence
            if ba != bb:
                return True   # sibling branches of the same par
        return False

    def ordered_before(self, x: NetEvent, y: NetEvent) -> bool:
        """True when the net sequences ``x`` strictly before ``y``."""
        return x.idx < y.idx and not self.concurrent(x, y)

    # ------------------------------------------------------------------
    # wait graph
    # ------------------------------------------------------------------
    def chain_edges(self) -> list[tuple[int, int]]:
        """Per-process sequencing places as (pred idx, succ idx) edges.

        The covering relation of the SP order restricted to one
        processor's kept events: an edge means a place holding the
        processor's control token between the two transitions.
        """
        if self._chain_edges is None:
            edges: list[tuple[int, int]] = []
            for chain in self.proc_chain.values():
                for j, y in enumerate(chain):
                    for i in range(j - 1, -1, -1):
                        x = chain[i]
                        if not self.ordered_before(x, y):
                            continue
                        covered = any(
                            self.ordered_before(x, z) and self.ordered_before(z, y)
                            for z in chain[i + 1:j]
                        )
                        if not covered:
                            edges.append((x.idx, y.idx))
            self._chain_edges = edges
        return self._chain_edges

    def match_receives(self) -> dict[int, int | None]:
        """Map each kept transfer to the compute that receives it.

        The receive point of a message is the destination processor's
        first compute the net does *not* order strictly before the send —
        the compute whose start merges the arrival into the data-ready
        clock.  ``None`` marks an orphan: the message's token is never
        consumed.
        """
        if self._receives is None:
            computes: dict[int, list[NetEvent]] = {}
            for e in self.kept:
                if not e.is_transfer:
                    computes.setdefault(e.a, []).append(e)
            matches: dict[int, int | None] = {}
            for e in self.kept:
                if not e.is_transfer:
                    continue
                matches[e.idx] = next(
                    (c.idx for c in computes.get(e.b, ())
                     if not self.ordered_before(c, e)),
                    None,
                )
            self._receives = matches
        return self._receives

    def wait_edges(self) -> list[tuple[int, int]]:
        """The full wait graph: chain edges plus message edges.

        A chain edge (x, y) means transition y needs x's token on the
        shared processor; a message edge (send, compute) means the compute
        waits for the message place to be marked.  Sends are buffered
        (they never wait on the receiver), matching the execution engine.
        """
        edges = list(self.chain_edges())
        for send, recv in self.match_receives().items():
            if recv is not None:
                edges.append((send, recv))
        return edges

    def find_cycle(self) -> list[NetEvent] | None:
        """A cyclic wait in the net, or ``None`` when none exists.

        A cycle means no firing sequence can consume all tokens: every
        transition on it waits for another's output place.  Returns the
        cycle's events in wait order (each waits on the next).
        """
        succs: dict[int, list[int]] = {}
        for a, b in self.wait_edges():
            succs.setdefault(b, []).append(a)  # b waits on a
        color: dict[int, int] = {}  # 1 = on stack, 2 = done
        parent: dict[int, int] = {}
        by_idx = {e.idx: e for e in self.kept}

        for start in by_idx:
            if color.get(start):
                continue
            stack: list[tuple[int, int]] = [(start, 0)]
            color[start] = 1
            while stack:
                node, pos = stack[-1]
                nexts = succs.get(node, ())
                if pos < len(nexts):
                    stack[-1] = (node, pos + 1)
                    child = nexts[pos]
                    state = color.get(child)
                    if state == 1:
                        cycle = [child]
                        cur = node
                        while cur != child:
                            cycle.append(cur)
                            cur = parent[cur]
                        cycle.reverse()
                        return [by_idx[i] for i in cycle]
                    if state is None:
                        color[child] = 1
                        parent[child] = node
                        stack.append((child, 0))
                else:
                    color[node] = 2
                    stack.pop()
        return None

    # ------------------------------------------------------------------
    # net accounting
    # ------------------------------------------------------------------
    @property
    def ntransitions(self) -> int:
        """Kept action transitions plus a fork and join per ``par``."""
        return len(self.kept) + 2 * len(self.pars)

    @property
    def nplaces(self) -> int:
        """Chain places, initial places, and one message place per send."""
        nmsg = sum(1 for e in self.kept if e.is_transfer)
        return len(self.chain_edges()) + len(self.proc_chain) + nmsg

    def summary(self) -> str:
        orphans = sum(1 for r in self.match_receives().values() if r is None)
        return (f"net: {self.nproc} processors, {len(self.events)} actions "
                f"({len(self.kept)} kept), {len(self.pars)} par instance(s), "
                f"{self.ntransitions} transitions, {self.nplaces} places, "
                f"{orphans} orphan message(s)")

    # ------------------------------------------------------------------
    # DOT export
    # ------------------------------------------------------------------
    def to_dot(self, title: str = "commnet") -> str:
        """GraphViz DOT: boxes for transitions, circles for message
        places, diamonds for fork/join, solid edges for processor chains
        and dashed edges through message places."""
        out = StringIO()
        out.write(f'digraph "{title}" {{\n')
        out.write("  rankdir=LR;\n")
        out.write('  node [fontsize=10, fontname="Helvetica"];\n')
        for e in self.kept:
            if e.is_transfer:
                shape, text = "box", f"send {e.label()}"
            else:
                shape, text = "box", f"compute {e.label()}"
            out.write(f'  t{e.idx} [shape={shape}, label="{text}"];\n')
        for a, b in self.chain_edges():
            out.write(f"  t{a} -> t{b};\n")
        receives = self.match_receives()
        for e in self.kept:
            if not e.is_transfer:
                continue
            out.write(
                f'  m{e.idx} [shape=circle, width=0.15, '
                f'label="", xlabel="msg {e.a}->{e.b}"];\n'
            )
            out.write(f"  t{e.idx} -> m{e.idx} [style=dashed];\n")
            recv = receives.get(e.idx)
            if recv is not None:
                out.write(f"  m{e.idx} -> t{recv} [style=dashed];\n")
        for par in self.pars.values():
            fork, join = f"f{par.pid}", f"j{par.pid}"
            at = f" L{par.line}" if par.line else ""
            out.write(f'  {fork} [shape=diamond, label="fork{at}"];\n')
            out.write(f'  {join} [shape=diamond, label="join{at}"];\n')
            for branch in range(par.branches):
                members = [e for e in self.kept
                           if (par.pid, branch) in e.path]
                if not members:
                    continue
                out.write(f"  {fork} -> t{members[0].idx} [style=dotted];\n")
                out.write(f"  t{members[-1].idx} -> {join} [style=dotted];\n")
        out.write("}\n")
        return out.getvalue()


def lower_model(model: AbstractBoundModel,
                max_events: int | None = None) -> CommNet:
    """Unroll a bound model's scheme into its communication net.

    With ``max_events``, the walk stops at the first event beyond it and
    raises :class:`NetTooLarge`.
    """
    recorder = _NetRecorder(model, max_events)
    model.walk_scheme(recorder)
    return CommNet(model.nproc, recorder.events, recorder.pars)
