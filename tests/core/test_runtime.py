"""HMPI runtime semantics: recon, timeof, group lifecycle."""

import numpy as np
import pytest

from repro.apps.jacobi import bind_jacobi_model
from repro.cluster import (
    StepLoad,
    paper_network,
    two_site_network,
    uniform_network,
)
from repro.core.mapper import ExhaustiveMapper
from repro.core.runtime import run_hmpi
from repro.perfmodel.builder import MatrixModel
from repro.hmpi import session
from repro.util.errors import HMPIStateError, OptionError


def simple_model(volumes=(100.0, 50.0), comm=0.0):
    n = len(volumes)
    links = np.full((n, n), float(comm))
    np.fill_diagonal(links, 0.0)
    return MatrixModel(list(volumes), links)


class TestPredicates:
    def test_host_and_free_roles(self, small_cluster):
        def app(hmpi):
            return (hmpi.is_host(), hmpi.is_free(), hmpi.rank, hmpi.size)

        res = run_hmpi(app, small_cluster)
        assert res.results[0] == (True, False, 0, 4)
        assert res.results[1] == (False, True, 1, 4)

    def test_comm_world_is_usable(self, small_cluster):
        from repro.mpi.ops import SUM

        def app(hmpi):
            return hmpi.comm_world.allreduce(1, SUM)

        res = run_hmpi(app, small_cluster)
        assert res.results == [4] * 4


class TestRecon:
    def test_refreshes_to_observed_speeds(self):
        # machine 1 is half-loaded from t=0: recon must discover ~25 u/s.
        cluster = uniform_network([100.0, 50.0])
        cluster.machines[1].load = StepLoad([(0.0, 0.5)], initial=0.5)

        def app(hmpi):
            hmpi.recon(volume=1.0)
            return hmpi.state.netmodel.speeds().tolist()

        res = run_hmpi(app, cluster)
        assert res.results[0][0] == pytest.approx(100.0)
        assert res.results[0][1] == pytest.approx(25.0)

    def test_returns_own_speed(self):
        cluster = uniform_network([100.0, 50.0])

        def app(hmpi):
            return hmpi.recon(volume=2.0)

        res = run_hmpi(app, cluster)
        assert res.results[0] == pytest.approx(100.0)
        assert res.results[1] == pytest.approx(50.0)

    def test_custom_benchmark(self):
        cluster = uniform_network([100.0])

        def bench(env):
            env.compute(1.0)

        def app(hmpi):
            return hmpi.recon(bench)

        res = run_hmpi(app, cluster)
        assert res.results[0] == pytest.approx(100.0)


class TestTimeof:
    def test_prediction_scales_with_iterations(self, small_cluster):
        def app(hmpi):
            if not hmpi.is_host():
                return None
            m = simple_model()
            return (hmpi.timeof(m), hmpi.timeof(m, iterations=10))

        res = run_hmpi(app, small_cluster)
        one, ten = res.results[0]
        assert ten == pytest.approx(10 * one)

    def test_local_operation_charges_no_time(self, small_cluster):
        def app(hmpi):
            if hmpi.is_host():
                t0 = hmpi.wtime()
                hmpi.timeof(simple_model())
                assert hmpi.wtime() == t0
            return True

        run_hmpi(app, small_cluster)

    def test_warm_model_reprices_after_topology_edit(self):
        """Clearing the topology mid-run re-prices a warm model: it then
        answers exactly what a freshly bound equal model answers."""
        cluster = two_site_network()

        def app(hmpi):
            if not hmpi.is_host():
                return None
            model = bind_jacobi_model(6, 2, 60, [10] * 6)
            before = hmpi.timeof(model, iterations=100)
            cluster.set_topology(None)
            warm = hmpi.timeof(model, iterations=100)
            fresh = hmpi.timeof(bind_jacobi_model(6, 2, 60, [10] * 6),
                                iterations=100)
            return before, warm, fresh

        before, warm, fresh = run_hmpi(app, cluster).results[0]
        assert fresh != before
        assert warm == fresh


class TestGroupLifecycle:
    def test_members_get_comm_with_abstract_order(self, paper_cluster):
        # Small parent volume so the optimum is unique: abstract 1 (200
        # units) must take the 176-speed machine, abstract 2 (100) the 106.
        model = simple_model([10.0, 200.0, 100.0])

        def app(hmpi):
            gid = hmpi.group_create(model, mapper=ExhaustiveMapper())
            info = None
            if gid.is_member:
                info = (gid.rank, gid.size, gid.comm.size)
                hmpi.group_free(gid)
            return (info, gid.world_ranks)

        res = run_hmpi(app, paper_cluster)
        _, world_ranks = res.results[0]
        # parent pinned: abstract 0 on host
        assert world_ranks[0] == 0
        # the two big volumes on the fastest machines, matched by size
        assert world_ranks[1] == 6 and world_ranks[2] == 7
        # group rank == abstract processor index
        member_infos = {r[0] for r in res.results if r[0] is not None}
        assert {(0, 3, 3), (1, 3, 3), (2, 3, 3)} == member_infos

    def test_non_members_have_no_comm(self, paper_cluster):
        model = simple_model([10.0, 10.0])

        def app(hmpi):
            gid = hmpi.group_create(model)
            if gid.is_member:
                hmpi.group_free(gid)
                return "member"
            with pytest.raises(HMPIStateError):
                _ = gid.comm
            return "outside"

        res = run_hmpi(app, paper_cluster)
        assert res.results.count("member") == 2
        assert res.results.count("outside") == 7

    def test_group_free_returns_processes_to_pool(self, paper_cluster):
        model = simple_model([10.0, 10.0])

        def app(hmpi):
            first = hmpi.group_create(model)
            if first.is_member:
                hmpi.group_free(first)
            second = hmpi.group_create(model)
            if second.is_member:
                hmpi.group_free(second)
            return (first.world_ranks, second.world_ranks)

        res = run_hmpi(app, paper_cluster)
        first, second = res.results[0]
        assert first == second  # same optimum available again

    def test_sequential_groups_communicate_independently(self, small_cluster):
        from repro.mpi.ops import SUM

        model = simple_model([10.0, 10.0, 10.0])

        def app(hmpi):
            total = None
            gid = hmpi.group_create(model)
            if gid.is_member:
                total = gid.comm.allreduce(gid.rank, SUM)
                hmpi.group_free(gid)
            return total

        res = run_hmpi(app, small_cluster)
        sums = [r for r in res.results if r is not None]
        assert sums == [3, 3, 3]

    def test_predicted_time_attached(self, small_cluster):
        model = simple_model([100.0, 50.0])

        def app(hmpi):
            gid = hmpi.group_create(model)
            if gid.is_member:
                hmpi.group_free(gid)
            return gid.mapping.time

        res = run_hmpi(app, small_cluster)
        assert res.results[0] > 0
        assert len(set(res.results)) == 1  # all agree on the prediction

    def test_freed_group_rejects_use(self, small_cluster):
        model = simple_model([10.0, 10.0])

        def app(hmpi):
            gid = hmpi.group_create(model)
            if gid.is_member:
                hmpi.group_free(gid)
                with pytest.raises(HMPIStateError):
                    _ = gid.comm
            return True

        run_hmpi(app, small_cluster)


class TestInitialSpeeds:
    def test_oracle_override(self, small_cluster):
        def app(hmpi):
            return hmpi.state.netmodel.speeds().tolist()

        res = run_hmpi(app, small_cluster, initial_speeds=[1.0, 2.0, 3.0, 4.0])
        assert res.results[0] == [1.0, 2.0, 3.0, 4.0]


class TestSessionOptions:
    def test_retired_timeof_backend_is_rejected_not_ignored(self, small_cluster):
        with pytest.raises(OptionError, match="unknown session option"):
            session(small_cluster, timeof_backend="net")


class TestDeadMarking:
    def test_dead_ranks_excluded_from_selection(self, paper_cluster):
        model = simple_model([10.0, 10.0])

        def app(hmpi):
            # pretend the fastest machine's process died; the dead rank
            # itself takes no further part in collective operations.
            hmpi.mark_dead(6)
            if hmpi.rank == 6:
                return None
            gid = hmpi.group_create(model)
            if gid.is_member:
                hmpi.group_free(gid)
            return gid.world_ranks

        res = run_hmpi(app, paper_cluster)
        assert 6 not in res.results[0]
