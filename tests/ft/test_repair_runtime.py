"""Group repair runtime: repair API, degraded-mode selection, cache
invalidation, free-pool drafting, and the flat HMPI_* wrappers."""

import numpy as np
import pytest

from repro.apps.jacobi import jacobi_reference, run_jacobi_ft
from repro.cluster import FaultSchedule, inject_faults, uniform_network
from repro.core import (
    HMPI_Group_create,
    HMPI_Group_repair,
    HMPI_Release_free,
    run_hmpi,
)
from repro.perfmodel.builder import MatrixModel
from repro.util.errors import (
    HMPIRepairError,
    OperationTimeoutError,
    RankFailedError,
)

from ..experiments import assert_table


def flat_model(nproc, volume=10.0):
    links = np.zeros((nproc, nproc))
    return MatrixModel([volume] * nproc, links)


def chatty_model(nproc, volume=10.0, comm=100.0):
    links = np.full((nproc, nproc), float(comm))
    np.fill_diagonal(links, 0.0)
    return MatrixModel([volume] * nproc, links)


class TestDegradedMode:
    def test_mark_dead_updates_network_model(self):
        cluster = uniform_network([100.0] * 4)

        def app(hmpi):
            if not hmpi.is_host():
                return None
            nm = hmpi.state.netmodel
            epoch0 = nm.speed_epoch
            hmpi.mark_dead(2)
            return (nm.degraded, nm.machine_dead(2), nm.speed_epoch > epoch0,
                    nm.alive_world_ranks(), hmpi.alive_ranks())

        res = run_hmpi(app, cluster)
        degraded, dead2, bumped, alive_nm, alive_rt = res.results[0]
        assert degraded and dead2 and bumped
        assert alive_nm == [0, 1, 3] and alive_rt == [0, 1, 3]

    def test_timeof_answers_over_survivors(self):
        """HMPI_Timeof in degraded mode: dead machines are excluded from
        selection, so losing the fast machines slows the prediction."""
        cluster = uniform_network([400.0, 200.0, 200.0, 100.0])

        def app(hmpi):
            if not hmpi.is_host():
                return None
            m = flat_model(2)
            before = hmpi.timeof(m)  # host + a 200-speed machine
            hmpi.mark_dead(1)
            hmpi.mark_dead(2)
            after = hmpi.timeof(m)   # host + the 100-speed straggler
            return (before, after)

        res = run_hmpi(app, cluster)
        before, after = res.results[0]
        assert after == pytest.approx(2 * before)

    def test_selection_cache_invalidated_on_membership_change(self):
        """A cached selection must never survive a machine death: the
        mapping itself has to change when its machine dies."""
        cluster = uniform_network([400.0, 300.0, 200.0, 100.0])

        def app(hmpi):
            if not hmpi.is_host():
                return None
            m = flat_model(2)
            first = hmpi.state.select(m)
            repeat = hmpi.state.select(m)
            stats_before = (hmpi.selection_stats.cache_hits,
                            hmpi.selection_stats.cache_misses)
            hmpi.mark_dead(1)  # the 300-speed machine was selected
            degraded = hmpi.state.select(m)
            stats_after = (hmpi.selection_stats.cache_hits,
                           hmpi.selection_stats.cache_misses)
            return (first, repeat, degraded, stats_before, stats_after)

        res = run_hmpi(app, cluster)
        first, repeat, degraded, (h0, m0), (h1, m1) = res.results[0]
        assert repeat == first          # warm cache before the death
        assert h0 >= 1
        assert 1 in first.processes     # fast non-host machine selected
        assert 1 not in degraded.processes
        assert m1 == m0 + 1             # the death forced a re-selection


class TestRepairProtocol:
    def test_repair_after_member_death(self):
        cluster = uniform_network([100.0] * 4)
        inject_faults(cluster, FaultSchedule({"m02": 0.05}))

        def app(hmpi):
            from repro.mpi.ops import SUM
            gid = hmpi.group_create(chatty_model(4))
            if gid is None or not gid.is_member:
                return None
            history = []
            for it in range(6):
                try:
                    hmpi.compute(5.0, gid.my_concurrency)
                    history.append(gid.comm.allreduce(1, SUM))
                except (RankFailedError, OperationTimeoutError) as exc:
                    gid = hmpi.group_repair(
                        gid, chatty_model(3),
                        dead=tuple(getattr(exc, "ranks", ())))
                    if not gid.is_member:
                        return ("dropped", history)
            if hmpi.is_host():
                hmpi.release_free()
            return ("done", history, gid.world_ranks)

        res = run_hmpi(app, cluster, timeout=30)
        host = res.results[0]
        assert host[0] == "done"
        assert 2 not in host[2] and len(host[2]) == 3
        # allreduce totals: 4 before the death, 3 after
        assert set(host[1]) <= {3, 4}
        assert 3 in host[1]

    def test_repair_drafts_free_replacement(self):
        """A free process is drafted to replace the dead member, keeping
        the group at full strength."""
        cluster = uniform_network([100.0] * 5)
        inject_faults(cluster, FaultSchedule({"m02": 0.05}))

        def model_for(navail):
            return chatty_model(min(4, navail))

        def app(hmpi):
            from repro.mpi.ops import SUM
            gid = hmpi.group_create(model_for if hmpi.is_host() else None)
            if gid is None:
                return ("released",)
            if not gid.is_member:
                # stay in the pool for the repair draft
                gid = hmpi.group_create(None)
                if gid is None:
                    return ("released",)
                if not gid.is_member:
                    return ("never-drafted",)
            totals = []
            for it in range(6):
                try:
                    hmpi.compute(5.0, gid.my_concurrency)
                    totals.append(gid.comm.allreduce(1, SUM))
                except (RankFailedError, OperationTimeoutError) as exc:
                    gid = hmpi.group_repair(
                        gid, model_for,
                        dead=tuple(getattr(exc, "ranks", ())))
                    if not gid.is_member:
                        return ("dropped",)
            if hmpi.is_host():
                hmpi.release_free()
            return ("done", totals, gid.world_ranks)

        res = run_hmpi(app, cluster, timeout=30)
        host = res.results[0]
        assert host[0] == "done"
        ranks = host[2]
        assert len(ranks) == 4 and 2 not in ranks and 4 in ranks

    def test_repair_infeasible_is_typed(self):
        """No silent wrong answer when repair cannot succeed: a model
        needing more processes than survive raises HMPIRepairError."""
        cluster = uniform_network([100.0] * 3)
        inject_faults(cluster, FaultSchedule({"m01": 0.05, "m02": 0.05}))

        def app(hmpi):
            from repro.mpi.ops import SUM
            gid = hmpi.group_create(chatty_model(3))
            if gid is None or not gid.is_member:
                return None
            try:
                for it in range(6):
                    hmpi.compute(5.0, gid.my_concurrency)
                    gid.comm.allreduce(1, SUM)
            except (RankFailedError, OperationTimeoutError) as exc:
                try:
                    hmpi.group_repair(gid, chatty_model(3),
                                      dead=tuple(getattr(exc, "ranks", ())))
                except HMPIRepairError as rerr:
                    return ("typed", str(rerr))
                return ("repaired-unexpectedly",)
            return ("no-failure",)

        res = run_hmpi(app, cluster, timeout=30)
        assert res.results[0][0] == "typed"

    def test_release_free_returns_none_from_group_create(self):
        cluster = uniform_network([100.0] * 4)

        def app(hmpi):
            if hmpi.is_host():
                gid = hmpi.group_create(chatty_model(2))
                gid.comm.barrier()
                hmpi.release_free()
                hmpi.group_free(gid)
                return "host"
            gid = hmpi.group_create(None)
            if gid is None:
                return "released"
            if gid.is_member:
                gid.comm.barrier()
                hmpi.group_free(gid)
                return "member"
            second = hmpi.group_create(None)
            return "released" if second is None else "unexpected"

        res = run_hmpi(app, cluster, timeout=30)
        assert res.results[0] == "host"
        assert res.results.count("member") == 1
        assert res.results.count("released") == 2


class TestFlatAPI:
    def test_flat_repair_wrappers(self):
        cluster = uniform_network([100.0] * 4)
        inject_faults(cluster, FaultSchedule({"m02": 0.05}))
        from repro.perfmodel import CallableModel

        def model(nproc):
            return CallableModel(nproc, lambda i: 10.0, lambda s, d: 100.0,
                                 name=f"flat-{nproc}")

        def app(hmpi):
            from repro.mpi.ops import SUM
            gid = HMPI_Group_create(hmpi, model(4))
            if gid is None or not gid.is_member:
                return None
            try:
                for _ in range(6):
                    hmpi.compute(5.0, gid.my_concurrency)
                    gid.comm.allreduce(1, SUM)
            except (RankFailedError, OperationTimeoutError) as exc:
                gid = HMPI_Group_repair(hmpi, gid, model(3),
                                        dead=tuple(getattr(exc, "ranks", ())))
                if not gid.is_member:
                    return ("dropped",)
            if hmpi.is_host():
                HMPI_Release_free(hmpi)
            return ("done", gid.world_ranks)

        res = run_hmpi(app, cluster, timeout=30)
        host = res.results[0]
        assert host[0] == "done" and 2 not in host[1]


class TestRepairOverhead:
    """EXPERIMENTS.md's repair-overhead table: FT Jacobi (n = 30,
    16 sweeps, 4 machines) surviving one death, per checkpoint interval."""

    @staticmethod
    def _run(every, death_at=None):
        cluster = uniform_network([100.0] * 4)
        if death_at is not None:
            inject_faults(cluster, FaultSchedule({"m02": death_at}))
        return run_jacobi_ft(cluster, n=30, p=4, niter=16, k=100,
                             checkpoint_every=every, timeout=120)

    def test_overhead_is_bounded_and_tabled(self):
        ref = jacobi_reference(30, 16)
        table = []
        for every in (1, 2, 4):
            clean = self._run(every)
            assert np.array_equal(clean.grid, ref)
            for death_at in (0.02, 0.08, 0.16):
                faulty = self._run(every, death_at)
                assert faulty.grid is not None, faulty.error
                assert np.array_equal(faulty.grid, ref)
                assert faulty.repairs >= 1
                # Never free, but bounded: the rollback redoes at most
                # `every` sweeps plus the repair protocol.
                assert clean.makespan < faulty.makespan < 5 * clean.makespan
                if death_at == 0.08:
                    overhead = (faulty.makespan / clean.makespan - 1) * 100
                    table.append([every, death_at, clean.makespan,
                                  faulty.makespan, overhead])
        assert_table("Repair overhead", table)
