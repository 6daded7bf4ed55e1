"""Hierarchical collectives: correctness, selection, validation, metrics."""

import pytest

from repro.cluster import (
    clusters_of_clusters,
    paper_network,
    two_site_network,
    uniform_network,
)
from repro.mpi import SUM, run_mpi
from repro.obs import MetricsRegistry
from repro.util.errors import MPICommError

from ..experiments import assert_table

HIER_BCAST = ("binomial", "flat", "chain", "hierarchical", "auto")
HIER_REDUCE = ("binomial", "flat", "hierarchical", "auto")


def run_two_site(app, *args, **kwargs):
    return run_mpi(app, two_site_network(), args=args, timeout=30, **kwargs)


class TestCorrectness:
    """Every algorithm choice produces the defined collective result."""

    @pytest.mark.parametrize("algorithm", HIER_BCAST)
    @pytest.mark.parametrize("root", [0, 2, 7])
    def test_bcast(self, algorithm, root):
        def app(env):
            value = ("blob", root) if env.rank == root else None
            return env.comm_world.bcast(value, root=root, nbytes=1 << 16,
                                        algorithm=algorithm)

        res = run_two_site(app)
        assert res.results == [("blob", root)] * 8

    @pytest.mark.parametrize("algorithm", HIER_REDUCE)
    @pytest.mark.parametrize("root", [0, 3])
    def test_reduce(self, algorithm, root):
        def app(env):
            return env.comm_world.reduce(env.rank + 1, SUM, root=root,
                                         algorithm=algorithm)

        res = run_two_site(app)
        assert res.results[root] == 36
        assert all(r is None for i, r in enumerate(res.results) if i != root)

    @pytest.mark.parametrize("algorithm", ("ring", "hierarchical", "auto"))
    def test_allgather(self, algorithm):
        def app(env):
            return env.comm_world.allgather(env.rank * 11,
                                            algorithm=algorithm)

        res = run_two_site(app)
        assert res.results == [[r * 11 for r in range(8)]] * 8

    @pytest.mark.parametrize("algorithm",
                             ("dissemination", "hierarchical", "auto"))
    def test_barrier_orders_clocks(self, algorithm):
        def app(env):
            env.compute(float(env.rank + 1))
            entered = env.wtime()
            env.comm_world.barrier(algorithm=algorithm)
            return entered, env.wtime()

        res = run_two_site(app)
        last_entry = max(entered for entered, _ in res.results)
        assert all(left >= last_entry for _, left in res.results)

    @pytest.mark.parametrize("algorithm", HIER_REDUCE)
    def test_allreduce(self, algorithm):
        def app(env):
            return env.comm_world.allreduce(env.rank, SUM,
                                            algorithm=algorithm)

        res = run_two_site(app)
        assert res.results == [28] * 8

    def test_three_level_recursion(self):
        def app(env):
            value = "deep" if env.rank == 5 else None
            got = env.comm_world.bcast(value, root=5, algorithm="hierarchical")
            total = env.comm_world.reduce(env.rank, SUM, root=5,
                                          algorithm="hierarchical")
            return got, total

        res = run_mpi(app, clusters_of_clusters(), timeout=30)
        assert all(got == "deep" for got, _ in res.results)
        assert res.results[5][1] == 28

    def test_hierarchical_on_subgroup_comm(self):
        """A communicator over a subset of ranks partitions by the
        members' machines, not the world's."""
        def app(env):
            sub = env.comm_world.split(color=0 if env.rank in (1, 2, 5, 6)
                                       else 1)
            value = env.rank if sub.rank == 0 else None
            got = sub.bcast(value, algorithm="hierarchical")
            return got

        res = run_two_site(app)
        assert [res.results[r] for r in (1, 2, 5, 6)] == [1, 1, 1, 1]
        assert [res.results[r] for r in (0, 3, 4, 7)] == [0, 0, 0, 0]

    def test_hierarchical_without_topology_degrades(self):
        """No topology: hierarchical falls back to one binomial tree."""
        def app(env, algorithm):
            value = 9 if env.rank == 2 else None
            env.comm_world.bcast(value, root=2, nbytes=4096,
                                 algorithm=algorithm)
            return env.wtime()

        cluster = paper_network()
        hier = run_mpi(app, cluster, args=("hierarchical",), timeout=30)
        bino = run_mpi(app, cluster, args=("binomial",), timeout=30)
        assert hier.makespan == bino.makespan


class TestUnknownAlgorithmValidation:
    """Satellite: unknown algorithm values raise MPICommError uniformly."""

    @pytest.mark.parametrize("coll,call", [
        ("bcast", lambda c: c.bcast(1, algorithm="bogus")),
        ("reduce", lambda c: c.reduce(1, SUM, algorithm="bogus")),
        ("allreduce", lambda c: c.allreduce(1, SUM, algorithm="bogus")),
        ("allgather", lambda c: c.allgather(1, algorithm="bogus")),
        ("barrier", lambda c: c.barrier(algorithm="bogus")),
    ])
    def test_unknown_algorithm_raises(self, coll, call):
        def app(env):
            with pytest.raises(MPICommError,
                               match=f"unknown {coll} algorithm 'bogus'"):
                call(env.comm_world)
            return "checked"

        res = run_mpi(app, uniform_network([100.0, 100.0]), timeout=30)
        assert res.results == ["checked", "checked"]

    def test_error_message_lists_choices(self):
        def app(env):
            try:
                env.comm_world.reduce(1, SUM, algorithm="nope")
            except MPICommError as exc:
                return str(exc)
            return None

        res = run_mpi(app, uniform_network([100.0, 100.0]), timeout=30)
        assert "binomial" in res.results[0]
        assert "hierarchical" in res.results[0]


class TestVirtualTimeWins:
    """Acceptance: on the two-site preset, hierarchy pays off."""

    @staticmethod
    def _makespan(algorithm, coll="bcast"):
        def app(env):
            if coll == "bcast":
                value = b"x" if env.rank == 2 else None
                env.comm_world.bcast(value, root=2, nbytes=1 << 20,
                                     algorithm=algorithm)
            else:
                env.comm_world.reduce([float(env.rank)] * 1024, SUM,
                                      root=2, algorithm=algorithm)
            return env.wtime()

        return run_two_site(app).makespan

    def test_hierarchical_bcast_beats_binomial(self):
        assert self._makespan("hierarchical") < self._makespan("binomial")

    def test_hierarchical_reduce_beats_binomial(self):
        assert self._makespan("hierarchical", "reduce") < \
            self._makespan("binomial", "reduce")

    @pytest.mark.parametrize("coll", ["bcast", "reduce"])
    def test_auto_never_loses_to_worst_fixed(self, coll):
        algos = [a for a in (HIER_BCAST if coll == "bcast" else HIER_REDUCE)
                 if a != "auto"]
        worst = max(self._makespan(a, coll) for a in algos)
        assert self._makespan("auto", coll) <= worst + 1e-9

    def test_two_site_tables(self):
        """EXPERIMENTS.md's flat-vs-hierarchical tables (root 2): the
        hierarchy beats the topology-blind tree at every size, and auto
        never loses to the worst fixed choice."""
        cluster = two_site_network()

        def bcast(env, nbytes, algorithm):
            env.comm_world.bcast(b"x" if env.rank == 2 else None, root=2,
                                 nbytes=nbytes, algorithm=algorithm)

        def reduce(env, length, algorithm):
            env.comm_world.reduce([float(env.rank)] * length, SUM, root=2,
                                  algorithm=algorithm)

        def allgather(env, length, algorithm):
            env.comm_world.allgather([float(env.rank)] * length,
                                     algorithm=algorithm)

        for index, (app, sizes, algos, tree) in enumerate((
            (bcast, (1 << 10, 1 << 16, 1 << 20), HIER_BCAST, "binomial"),
            (reduce, (16, 256, 4096), HIER_REDUCE, "binomial"),
            (allgather, (16, 256, 4096), ("ring", "hierarchical", "auto"),
             "ring"),
        )):
            table = []
            for size in sizes:
                times = {a: run_mpi(app, cluster, args=(size, a)).makespan
                         for a in algos}
                assert times["hierarchical"] < times[tree]
                assert times["auto"] <= max(
                    t for a, t in times.items() if a != "auto") + 1e-9
                table.append([size, *times.values()])
            assert_table("flat vs hierarchical collectives", table, index)


class TestMetricsRecording:
    def test_algorithm_counter_labels(self):
        def app(env):
            env.comm_world.bcast(1 if env.rank == 0 else None,
                                 nbytes=1 << 20, algorithm="auto")
            env.comm_world.reduce(env.rank, SUM, algorithm="binomial")

        metrics = MetricsRegistry()
        run_mpi(app, two_site_network(), timeout=30, metrics=metrics)
        by_labels = {
            tuple(sorted(inst.labels.items())): inst.value
            for inst in metrics.series("hmpi.coll.algorithm")
        }
        assert by_labels[
            (("algorithm", "hierarchical"), ("coll", "bcast"),
             ("level", "wan"))
        ] == 8.0
        assert by_labels[
            (("algorithm", "binomial"), ("coll", "reduce"), ("level", "-"))
        ] == 8.0

    def test_no_metrics_by_default(self):
        def app(env):
            env.comm_world.bcast(1 if env.rank == 0 else None)
            return "ok"

        res = run_mpi(app, two_site_network(), timeout=30)
        assert res.results == ["ok"] * 8
