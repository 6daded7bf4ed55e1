"""The selection cache is invisible: a warm answer is always the cold one.

One invariant, stated as state machines.  Any interleaving of the world
edits a run can make — speed refreshes, machine deaths, churn departures
and readmissions, topology and link edits, protocol pinning (cluster-wide
or one link object in place) — with
selections over a shrinking candidate pool must leave
:meth:`HMPIRuntimeState.select` answering **bitwise** what a cold
runtime built from the current world answers.  The served path is the
same cache per world, so a long-lived :class:`repro.serve.Executor` fed
random ``speeds`` updates must answer what a fresh one replaying the same
request history answers.

The default profiles are tier-1 sized; the ``slow`` variants carry the
deep search.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

import repro.core  # noqa: F401  (registers the "anneal" mapper)
from repro.apps.jacobi import JACOBI_MODEL_SOURCE
from repro.cluster import Cluster, Machine, Topology, TopologyNode
from repro.cluster.link import (
    FAST_INTERCONNECT,
    GIGABIT_ETHERNET,
    TCP_100MBIT,
    WAN_10MBIT,
    Link,
)
from repro.core.netmodel import NetworkModel
from repro.core.runtime import HOST_RANK, HMPIRuntimeState
from repro.perfmodel.builder import MatrixModel
from repro.serve import Executor, validate_request
from repro.util.errors import ClusterError

SPEEDS = (100.0, 50.0, 176.0, 106.0, 25.0, 200.0)
N = len(SPEEDS)
NPROC = 3  # abstract processors of every model below
PROTOCOLS = (TCP_100MBIT, FAST_INTERCONNECT, GIGABIT_ETHERNET, WAN_10MBIT)
MAPPERS = ("greedy", "default", "refine", "anneal")


def make_world():
    """Six heterogeneous machines, two sites, TCP available everywhere."""
    machines = [Machine(name=f"m{i}", speed=s) for i, s in enumerate(SPEEDS)]
    sites = tuple(
        TopologyNode(name=f"site{s}", kind="subnet",
                     protocols=(TCP_100MBIT, GIGABIT_ETHERNET),
                     children=tuple(TopologyNode.leaf(f"m{i}")
                                    for i in range(3 * s, 3 * s + 3)))
        for s in range(2))
    topology = Topology(TopologyNode(name="wan", kind="site",
                                     protocols=(TCP_100MBIT,),
                                     children=sites))
    cluster = Cluster(machines,
                      default_protocols=(TCP_100MBIT, FAST_INTERCONNECT),
                      topology=topology)
    return cluster, topology


def make_model(seed):
    rng = np.random.default_rng(seed)
    node = rng.uniform(10.0, 100.0, size=NPROC)
    links = rng.uniform(1e3, 1e6, size=(NPROC, NPROC))
    np.fill_diagonal(links, 0.0)
    return MatrixModel(node, links)


class SelectionCacheMachine(RuleBasedStateMachine):
    """A warm runtime against a cold one rebuilt from the world each step.

    The machine keeps its own record of the world (speeds, dead and
    departed machines) and builds the cold side from that record, not
    from the warm runtime's state.
    """

    def __init__(self):
        super().__init__()
        self.cluster, self.topology = make_world()
        self.state = HMPIRuntimeState(NetworkModel(self.cluster, range(N)))
        self.models = [make_model(seed) for seed in range(2)]
        self.speeds = list(SPEEDS)
        self.dead: set[int] = set()
        self.departed: set[int] = set()
        self.query = None
        self.answer = None

    # -- the world ------------------------------------------------------
    def alive(self):
        return [m for m in range(1, N) if m not in self.dead | self.departed]

    def pool(self, drop):
        """Host plus alive free ranks, shrunk by ``drop`` (never below
        the model's size).  One rank per machine, so rank == machine."""
        full = [HOST_RANK] + self.alive()
        return full[:max(NPROC, len(full) - drop)]

    def cold_state(self):
        netmodel = NetworkModel(self.cluster, range(N), self.speeds)
        for m in sorted(self.dead | self.departed):
            netmodel.mark_machine_dead(m)
        return HMPIRuntimeState(netmodel)

    # -- rules ------------------------------------------------------------
    @rule(machine=st.integers(0, N - 1), speed=st.sampled_from(SPEEDS))
    def update_speed(self, machine, speed):
        self.state.netmodel.update_speed(machine, speed)
        self.speeds[machine] = speed

    @precondition(lambda self: len(self.alive()) >= NPROC)
    @rule(data=st.data())
    def mark_dead(self, data):
        # As HMPI.mark_dead does for the rank on a failed machine.
        m = data.draw(st.sampled_from(self.alive()))
        self.state.dead.add(m)
        self.state.free.discard(m)
        self.state.netmodel.mark_machine_dead(m)
        self.dead.add(m)

    @precondition(lambda self: len(self.alive()) >= NPROC)
    @rule(data=st.data())
    def depart_machine(self, data):
        # As HMPI.depart_machine does (churn "leave").
        m = data.draw(st.sampled_from(self.alive()))
        self.state.departed.add(m)
        self.state.netmodel.mark_machine_dead(m)
        self.departed.add(m)

    @precondition(lambda self: bool(self.departed))
    @rule(data=st.data())
    def admit_machine(self, data):
        # As HMPI.admit_machine does (churn "join").
        m = data.draw(st.sampled_from(sorted(self.departed)))
        self.state.netmodel.admit_machine(m)
        self.state.departed.discard(m)
        self.departed.discard(m)

    @rule()
    def toggle_topology(self):
        self.cluster.set_topology(
            None if self.cluster.topology is not None else self.topology)

    @rule(data=st.data(),
          protocols=st.lists(st.sampled_from(PROTOCOLS), min_size=1,
                             max_size=3, unique=True),
          symmetric=st.booleans())
    def set_link(self, data, protocols, symmetric):
        machines = list(range(N))
        if self.answer is not None and data.draw(st.booleans()):
            machines = list(self.answer.machines)  # where an edit shows
        src, dst = data.draw(st.permutations(machines))[:2]
        self.cluster.set_link(src, dst, Link(protocols), symmetric=symmetric)

    @rule(name=st.sampled_from([p.name for p in PROTOCOLS]))
    def pin_all(self, name):
        try:
            self.cluster.pin_all(name)
        except ClusterError:
            pass  # some link lacks the protocol; earlier ones stay pinned

    @rule()
    def unpin_all(self):
        self.cluster.unpin_all()

    @rule(data=st.data())
    def pin_one(self, data):
        # An in-place edit of one link object, not a cluster method, on
        # a link the last answer uses (where a stale price shows).
        machines = list(range(N) if self.answer is None
                        else self.answer.machines)
        src, dst = data.draw(st.permutations(machines))[:2]
        link = self.cluster.link(src, dst)
        # A protocol other than the one a large message takes today, so
        # the pin moves a price.
        now = link.protocol_for(1 << 20).name
        names = [p.name for p in link.protocols if p.name != now]
        if names:
            link.pin(data.draw(st.sampled_from(names)))

    @rule(model=st.integers(0, 1), mapper=st.sampled_from(MAPPERS),
          drop=st.integers(0, 3))
    def select(self, model, mapper, drop):
        self.query = (model, mapper, drop)

    # -- the invariant ----------------------------------------------------
    @invariant()
    def warm_answer_is_cold_answer(self):
        if self.query is None:
            return
        index, mapper, drop = self.query
        model = self.models[index]
        pool = self.pool(drop)
        # drop == 0 exercises the default pool (participants()).
        warm = self.state.select(model, mapper,
                                 candidates=pool if drop else None)
        cold = self.cold_state().select(model, mapper, candidates=pool)
        assert warm == cold
        self.answer = warm


PAPER_SIZE = 9


def strip(result):
    return {k: v for k, v in result.items() if k != "cache"}


class ServedCacheMachine(RuleBasedStateMachine):
    """A long-lived executor against a fresh one replaying its history."""

    def __init__(self):
        super().__init__()
        self.executor = Executor()
        self.history: list[dict] = []

    @rule(op=st.sampled_from(["timeof", "group_create"]),
          rows=st.sampled_from([[15, 15, 15, 15], [30, 5, 25]]),
          mapper=st.sampled_from(["greedy", "default"]),
          speeds=st.none() | st.lists(st.sampled_from([9.0, 50.0, 176.0]),
                                      min_size=PAPER_SIZE,
                                      max_size=PAPER_SIZE))
    def execute(self, op, rows, mapper, speeds):
        raw = {"op": op, "model": JACOBI_MODEL_SOURCE,
               "params": {"p": len(rows), "k": 2, "N": 60, "rows": rows},
               "cluster": "paper", "mapper": mapper}
        if speeds is not None:
            raw["speeds"] = speeds
        self.history.append(raw)
        served = self.executor.execute(validate_request(dict(raw)))
        replay = Executor()
        for past in self.history:
            direct = replay.execute(validate_request(dict(past)))
        assert strip(served) == strip(direct)


FAST = settings(max_examples=30, stateful_step_count=15, deadline=None)
DEEP = settings(max_examples=60, stateful_step_count=30, deadline=None)


def test_warm_selection_is_cold_selection():
    run_state_machine_as_test(SelectionCacheMachine, settings=FAST)


def test_served_answer_is_history_replay():
    run_state_machine_as_test(
        ServedCacheMachine,
        settings=settings(FAST, max_examples=10, stateful_step_count=8))


@pytest.mark.slow
def test_warm_selection_is_cold_selection_deep():
    run_state_machine_as_test(SelectionCacheMachine, settings=DEEP)


@pytest.mark.slow
def test_served_answer_is_history_replay_deep():
    run_state_machine_as_test(
        ServedCacheMachine,
        settings=settings(DEEP, max_examples=30, stateful_step_count=12))
