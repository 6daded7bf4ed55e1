"""The world format: cluster specs, snapshots and their round trips."""

import copy
import json

import pytest

from repro.cluster import (
    CLUSTER_PRESETS,
    ConstantLoad,
    FAST_INTERCONNECT,
    Link,
    RandomWalkLoad,
    SquareWaveLoad,
    StepLoad,
    TCP_100MBIT,
    multiprotocol_network,
    paper_network,
    uniform_network,
)
from repro.cluster.serialize import (
    cluster_from_spec,
    cluster_to_dict,
    load_from_spec,
    transient_faults_from_spec,
)
from repro.util.errors import ClusterError


def json_round_trip(cluster):
    """``cluster`` dumped to JSON text and parsed back."""
    return cluster_from_spec(json.loads(json.dumps(cluster_to_dict(cluster))))


class TestRoundTrip:
    def test_paper_network(self):
        original = paper_network()
        restored = cluster_from_spec(cluster_to_dict(original))
        assert restored.speeds() == original.speeds()
        assert [m.name for m in restored.machines] == [m.name for m in original.machines]
        assert [m.os for m in restored.machines] == [m.os for m in original.machines]
        assert restored.transfer_time(0, 1, 10**6) == pytest.approx(
            original.transfer_time(0, 1, 10**6)
        )

    def test_json_round_trip(self):
        original = multiprotocol_network()
        restored = json_round_trip(original)
        assert restored.transfer_time(0, 1, 10**7) == pytest.approx(
            original.transfer_time(0, 1, 10**7)
        )
        assert len(restored.link(0, 1).protocols) == 2

    def test_loopback_preserved(self):
        original = paper_network()
        restored = cluster_from_spec(cluster_to_dict(original))
        assert restored.link(2, 2).protocols[0].name == "shm"

    def test_fail_at_preserved(self):
        c = uniform_network([10.0, 20.0])
        c.machines[1].fail_at = 3.5
        restored = cluster_from_spec(cluster_to_dict(c))
        assert restored.machine(1).fail_at == 3.5
        assert restored.machine(0).fail_at is None

    def test_pinned_link_preserved(self):
        c = uniform_network([10.0, 20.0])
        c.set_link(0, 1, Link([TCP_100MBIT, FAST_INTERCONNECT],
                              pinned="tcp-100mbit"))
        restored = cluster_from_spec(cluster_to_dict(c))
        assert restored.link(0, 1).pinned == "tcp-100mbit"

    def test_asymmetric_links_preserved(self):
        c = uniform_network([10.0, 20.0])
        c.set_link(0, 1, Link.single(FAST_INTERCONNECT), symmetric=False)
        restored = cluster_from_spec(cluster_to_dict(c))
        assert restored.transfer_time(0, 1, 10**7) < restored.transfer_time(1, 0, 10**7)


class TestLoadModels:
    def test_constant(self):
        c = uniform_network([10.0])
        c.machines[0].load = ConstantLoad(0.25)
        restored = cluster_from_spec(cluster_to_dict(c))
        assert restored.machine(0).load.share_at(0.0) == 0.25

    def test_step(self):
        c = uniform_network([10.0])
        c.machines[0].load = StepLoad([(1.0, 0.5), (2.0, 0.75)], initial=0.9)
        restored = cluster_from_spec(cluster_to_dict(c))
        load = restored.machine(0).load
        assert load.share_at(0.5) == 0.9
        assert load.share_at(1.5) == 0.5
        assert load.share_at(2.5) == 0.75

    def test_square_wave(self):
        c = uniform_network([10.0])
        c.machines[0].load = SquareWaveLoad(period=4.0, high=1.0, low=0.3,
                                            phase=0.5)
        restored = cluster_from_spec(cluster_to_dict(c))
        for t in (0.0, 1.0, 2.0, 3.7):
            assert restored.machine(0).load.share_at(t) == \
                c.machines[0].load.share_at(t)

    def test_random_walk_round_trips_by_seed(self):
        c = uniform_network([10.0])
        c.machines[0].load = RandomWalkLoad(interval=1.0, seed=1, step=0.3)
        c.machines[0].load.share_at(5.0)  # the walk's state is not saved
        restored = cluster_from_spec(cluster_to_dict(c)).machine(0).load
        for t in (0.5, 3.5, 7.5):
            assert restored.share_at(t) == c.machines[0].load.share_at(t)


class TestErrors:
    def test_unknown_load_kind(self):
        with pytest.raises(ClusterError):
            cluster_from_spec({
                "machines": [{"name": "a", "speed": 1.0,
                              "load": {"kind": "martian"}}],
            })


class TestSinglePort:
    def test_single_port_round_trip(self):
        from repro.cluster import Cluster, Machine

        c = Cluster([Machine("a", 1.0), Machine("b", 2.0)], single_port=True)
        restored = cluster_from_spec(cluster_to_dict(c))
        assert restored.single_port is True

    def test_default_is_multi_port(self):
        restored = cluster_from_spec(cluster_to_dict(paper_network()))
        assert restored.single_port is False


class TestFaultBlobs:
    """Fault-campaign configuration must survive serialization: schedules,
    transient-fault configs (default and per-pair), and the seed that makes
    a campaign reproducible from its saved cluster file."""

    def _faulty_cluster(self):
        from repro.cluster import (
            FaultSchedule,
            TransientFaultConfig,
            TransientLinkFaults,
            attach_transient_faults,
            inject_faults,
        )

        c = uniform_network([100.0, 50.0, 25.0])
        inject_faults(c, FaultSchedule({"m01": 0.25, "m02": 1.5}))
        attach_transient_faults(c, TransientLinkFaults(
            TransientFaultConfig(drop_prob=0.3, delay_prob=0.1,
                                 delay=2e-3, start=0.1, stop=5.0),
            seed=42,
            pair_configs={("m00", "m02"): TransientFaultConfig(drop_prob=0.9)},
        ))
        return c

    def test_fault_schedule_round_trip(self):
        restored = cluster_from_spec(cluster_to_dict(self._faulty_cluster()))
        assert restored.machine("m01").fail_at == 0.25
        assert restored.machine("m02").fail_at == 1.5
        assert restored.machine("m00").fail_at is None

    def test_transient_config_round_trip(self):
        restored = cluster_from_spec(cluster_to_dict(self._faulty_cluster()))
        tf = restored.transient_faults
        assert tf is not None
        assert tf.seed == 42
        d = tf.default
        assert (d.drop_prob, d.delay_prob, d.delay) == (0.3, 0.1, 2e-3)
        assert (d.start, d.stop) == (0.1, 5.0)

    def test_pair_config_round_trip(self):
        restored = cluster_from_spec(cluster_to_dict(self._faulty_cluster()))
        tf = restored.transient_faults
        assert tf.config_for("m00", "m02").drop_prob == 0.9
        # non-overridden pairs fall back to the default
        assert tf.config_for("m00", "m01").drop_prob == 0.3

    def test_json_round_trip_with_faults(self):
        restored = json_round_trip(self._faulty_cluster())
        assert restored.machine("m01").fail_at == 0.25
        assert restored.transient_faults.config_for("m00", "m02").drop_prob == 0.9

    def test_restored_cluster_reproduces_the_campaign(self):
        """The whole point of serializing a fault schedule: the restored
        cluster drives a bitwise-identical faulty run."""
        from repro.cluster import (
            TransientFaultConfig,
            TransientLinkFaults,
            attach_transient_faults,
        )
        from repro.mpi import FTConfig, run_mpi

        def pingpong(env):
            peer = 1 - env.rank
            for i in range(12):
                if env.rank == 0:
                    env.comm_world.send(i, peer, tag=i)
                    env.comm_world.recv(peer, tag=i)
                else:
                    env.comm_world.send(env.comm_world.recv(peer, tag=i),
                                        peer, tag=i)
            return env.wtime()

        original = uniform_network([100.0, 100.0])
        attach_transient_faults(original, TransientLinkFaults(
            TransientFaultConfig(drop_prob=0.4), seed=9))
        restored = cluster_from_spec(cluster_to_dict(original))
        ft = FTConfig(max_retries=16, retry_timeout=1e-3)
        a = run_mpi(pingpong, original, timeout=20, ft=ft)
        b = run_mpi(pingpong, restored, timeout=20, ft=ft)
        assert a.results == b.results
        assert a.makespan == b.makespan

    def test_no_transient_block_when_absent(self):
        blob = cluster_to_dict(uniform_network([10.0, 20.0]))
        assert "transient_faults" not in blob

    def test_load_model_with_faults_round_trip(self):
        """Load models and fault blobs coexist in one cluster file."""
        from repro.cluster import StepLoad

        c = self._faulty_cluster()
        c.machines[0].load = StepLoad([(0.0, 0.5), (2.0, 0.25)])
        restored = cluster_from_spec(cluster_to_dict(c))
        assert restored.machine(0).load.share_at(1.0) == 0.5
        assert restored.machine(0).load.share_at(3.0) == 0.25
        assert restored.machine("m01").fail_at == 0.25


class TestTopologyRoundTrip:
    """Topology blocks in cluster blobs: round-trip + back-compat."""

    def test_topology_round_trips(self):
        from repro.cluster import two_site_network

        original = two_site_network()
        restored = cluster_from_spec(cluster_to_dict(original))
        assert restored.topology is not None
        assert restored.topology.leaf_names() == original.topology.leaf_names()
        assert restored.topology.depth == original.topology.depth
        for a, b in [(0, 1), (0, 4), (3, 7)]:
            assert restored.transfer_time(a, b, 1 << 20) == pytest.approx(
                original.transfer_time(a, b, 1 << 20)
            )
            assert restored.machine_distance(a, b) == original.machine_distance(a, b)

    def test_three_level_json_round_trip(self):
        from repro.cluster import clusters_of_clusters

        original = clusters_of_clusters()
        restored = json_round_trip(original)
        for a in range(original.size):
            for b in range(original.size):
                assert restored.transfer_time(a, b, 4096) == pytest.approx(
                    original.transfer_time(a, b, 4096)
                )

    def test_double_round_trip_is_stable(self):
        """Topology-derived links must not leak into the explicit link
        list: serializing a restored cluster gives the same blob."""
        from repro.cluster import two_site_network

        original = two_site_network()
        # Exercise the lazy topology-link cache before serializing.
        original.transfer_time(0, 5, 1000)
        blob1 = cluster_to_dict(original)
        blob2 = cluster_to_dict(cluster_from_spec(blob1))
        assert blob1 == blob2
        assert blob1["links"] == []  # nothing explicit was configured

    def test_absent_topology_stays_flat_mesh(self):
        """Back-compat: blobs without a topology key build flat clusters."""
        blob = cluster_to_dict(paper_network())
        assert "topology" not in blob
        restored = cluster_from_spec(blob)
        assert restored.topology is None
        assert restored.machine_distance(0, 5) == 1

    def test_explicit_links_survive_alongside_topology(self):
        from repro.cluster import FAST_INTERCONNECT, Link, two_site_network

        original = two_site_network()
        original.set_link(0, 1, Link([FAST_INTERCONNECT]), symmetric=True)
        restored = cluster_from_spec(cluster_to_dict(original))
        assert restored.link(0, 1).protocols[0].name == "fast"
        assert restored.link(2, 3).protocols[0].name == "tcp-1gbit"


def reparsed(blob):
    """``blob`` through JSON text and back through the parser, dumped."""
    return cluster_to_dict(cluster_from_spec(json.loads(json.dumps(blob))))


class TestWorldSpecs:
    """One parser for presets, ``kind`` dicts and snapshots: whatever
    it builds, ``cluster_to_dict`` writes a snapshot it reads back equal."""

    SPECS = [
        *CLUSTER_PRESETS,
        {"kind": "uniform", "speeds": [10, 20]},
        {"kind": "homogeneous", "n": 3, "speed": 50},
        {"kind": "homogeneous"},
        {"kind": "random", "n": 4, "seed": 2},
        {"kind": "topology", "preset": "two_site", "machines_per_site": 3},
        {"kind": "topology", "preset": "clusters_of_clusters", "sites": 1,
         "subnets_per_site": 2, "machines_per_subnet": 2,
         "speeds": [1, 2, 3, 4]},
    ]
    LOADS = [
        {"kind": "constant", "share": 0.5},
        {"kind": "step", "steps": [[1.0, 0.5], [2.0, 0.25]]},
        {"kind": "square", "period": 2.0},
        {"kind": "diurnal", "day": 10.0},
        {"kind": "random_walk", "interval": 1.0, "seed": 4},
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: (
        s if isinstance(s, str) else s.get("preset", s["kind"])))
    def test_dump_parses_back_equal(self, spec):
        blob = cluster_to_dict(cluster_from_spec(spec))
        assert reparsed(blob) == blob

    @pytest.mark.parametrize("spec", LOADS, ids=lambda s: s["kind"])
    def test_every_load_kind_round_trips(self, spec):
        c = uniform_network([10.0, 20.0])
        c.machines[1].load = load_from_spec(spec)
        blob = cluster_to_dict(c)
        assert blob["machines"][1]["load"]["kind"] == spec["kind"]
        assert reparsed(blob) == blob
        restored = cluster_from_spec(blob).machines[1].load
        for t in (0.0, 0.7, 1.3, 4.2, 9.1):
            assert restored.share_at(t) == c.machines[1].load.share_at(t)

    def test_campaign_transient_spec_round_trips(self):
        c = uniform_network([10.0, 20.0])
        c.transient_faults = transient_faults_from_spec(
            {"drop_prob": 0.2, "delay": 1e-3, "seed": 3})
        blob = cluster_to_dict(c)
        assert blob["transient_faults"]["seed"] == 3
        assert reparsed(blob) == blob

    @pytest.mark.parametrize("spec, message", [
        ("nope", "unknown cluster preset 'nope'"),
        (42, "cluster spec must be a preset name or an object"),
        ({"kind": "homogenous"}, "kind: unknown kind 'homogenous'"),
        ({"kind": "homogeneous", "N": 8}, "N: unknown key"),
        ({"kind": "random", "n": 5, "sede": 3}, "sede: unknown key"),
        ({"kind": "uniform", "speeds": []}, "a cluster needs at least one"),
        ({"kind": "uniform", "speeds": [1, "x"]}, "speeds[1]: could not"),
        ({"kind": "random", "n": "many"}, "n: invalid literal"),
        ({"kind": "topology", "preset": "two_site", "sites": 2},
         "sites: unknown key"),
        ({"kind": "topology", "preset": "nope"},
         "preset: unknown topology preset 'nope'"),
        ({"single_port": True}, "machines: required"),
        ({"machines": [{"name": "a", "speed": 1}], "bogus": 1},
         "bogus: unknown key"),
        ({"machines": [{"name": "a"}]}, "machines[0].speed: required"),
        ({"machines": [{"name": "a", "speed": 1, "sped": 2}]},
         "machines[0].sped: unknown key"),
        ({"machines": [{"name": "a", "speed": 1,
                        "load": {"kind": "square", "high": 0.5}}]},
         "machines[0].load.period: required"),
        ({"machines": [{"name": "a", "speed": 1,
                        "load": {"kind": "constant", "shape": 1}}]},
         "machines[0].load.shape: unknown key"),
        ({"machines": [{"name": "a", "speed": 1,
                        "load": {"kind": "random_walk", "interval": 1}}]},
         "machines[0].load.seed: required"),
        ({"machines": [{"name": "a", "speed": 1}, {"name": "b", "speed": 1}],
          "links": [{"src": 0, "dst": 1, "protocols": [], "weight": 1}]},
         "links[0].weight: unknown key"),
        ({"machines": [{"name": "a", "speed": 1}],
          "transient_faults": {"pairs": [{"src": "a", "dst": "a",
                                          "drop": 0.5}]}},
         "transient_faults.pairs[0].drop: unknown key"),
        ({"machines": [{"name": "a", "speed": 1}],
          "topology": {"name": "root", "children": [{"machin": "a"}]}},
         "topology.children[0].machin: unknown key"),
    ])
    def test_malformed_spec_names_the_key(self, spec, message):
        with pytest.raises(ClusterError) as exc:
            cluster_from_spec(spec)
        assert str(exc.value).startswith(message)

    def test_any_damage_to_a_snapshot_is_a_cluster_error(self):
        """Deleting or replacing any value of a full snapshot builds a
        cluster or raises ClusterError, never a KeyError or TypeError."""
        from repro.cluster import (
            TransientFaultConfig,
            TransientLinkFaults,
            two_site_network,
        )

        c = two_site_network(machines_per_site=2)
        c.machines[1].load = SquareWaveLoad(period=2.0, low=0.3)
        c.machines[2].fail_at = 1.5
        c.set_link(0, 1, Link([TCP_100MBIT, FAST_INTERCONNECT],
                              pinned="fast"))
        c.transient_faults = TransientLinkFaults(
            TransientFaultConfig(drop_prob=0.1), seed=2,
            pair_configs={("s0m00", "s1m00"): TransientFaultConfig()})
        blob = cluster_to_dict(c)

        def paths(node, prefix=()):
            items = (node.items() if isinstance(node, dict)
                     else enumerate(node) if isinstance(node, list) else ())
            for key, child in items:
                yield prefix + (key,)
                yield from paths(child, prefix + (key,))

        damaged = 0
        for path in list(paths(blob)):
            for value in (KeyError, None, "x", -1, [], {}):
                mutated = copy.deepcopy(blob)
                parent = mutated
                for key in path[:-1]:
                    parent = parent[key]
                if value is KeyError:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = value
                try:
                    cluster_from_spec(mutated)
                except ClusterError:
                    damaged += 1
        assert damaged > 100
