"""Observability threaded through the runtime: spans, counters, accuracy.

These are the integration tests of the layer — real runs with ``obs=``
passed to the drivers, asserting on what the bundle collected.
"""

import pytest

from repro.cluster import paper_network, uniform_network
from repro.core.runtime import run_hmpi
from repro.obs import Observability


class TestRuntimeSpans:
    def test_recon_and_timeof_spans(self):
        obs = Observability(tracer=False)

        def app(hmpi):
            from repro import CallableModel

            hmpi.recon()
            if hmpi.is_host():
                model = CallableModel(nproc=2,
                                      node_volume=lambda i: 100.0,
                                      link_volume=lambda s, d: 0.0)
                hmpi.timeof(model, iterations=3)
            return hmpi.rank

        run_hmpi(app, uniform_network([100.0] * 3), obs=obs)
        recons = obs.spans.by_name("HMPI_Recon")
        assert len(recons) == 3           # every rank
        assert all("speed" in s.attrs and "elapsed" in s.attrs
                   for s in recons)
        (tof,) = obs.spans.by_name("HMPI_Timeof")
        assert tof.rank == 0
        assert tof.attrs["cache"] in ("hit", "miss")
        assert tof.attrs["candidates"] >= 1
        assert tof.attrs["predicted"] > 0
        assert obs.metrics.get_value("hmpi.recon.calls") == 3.0
        assert obs.metrics.get_value("hmpi.timeof.calls") == 1.0

    def test_group_create_span_attrs(self):
        obs = Observability(tracer=False)

        def app(hmpi):
            from repro import CallableModel

            model = CallableModel(nproc=2,
                                  node_volume=lambda i: 100.0,
                                  link_volume=lambda s, d: 0.0)
            gid = hmpi.group_create(model)
            if gid.is_member:
                hmpi.group_free(gid)
            return None

        run_hmpi(app, uniform_network([100.0] * 3), obs=obs)
        spans = obs.spans.by_name("HMPI_Group_create")
        assert len(spans) == 3
        host = [s for s in spans if s.attrs["role"] == "host"]
        assert len(host) == 1
        assert host[0].attrs["size"] == 2
        assert host[0].attrs["predicted"] > 0
        assert "cache" in host[0].attrs    # selection info reached the span
        # Counted once per group (at the host), not once per participant.
        assert obs.metrics.get_value("hmpi.groups.created") == 1.0

    def test_prediction_pairs_from_matmul(self):
        from repro.apps.matmul import run_matmul_hmpi
        from repro.core import GreedyMapper

        obs = Observability(tracer=False)
        run_matmul_hmpi(paper_network(), n=9, r=5, m=3, l=9, seed=1,
                        mapper=GreedyMapper(), obs=obs)
        report = obs.accuracy.report()
        assert "ParallelAxB" in report
        row = report["ParallelAxB"]
        assert row["measured"] == 1
        assert row["predictions"] >= 1
        # The engine executes exactly what the model prices, so the
        # selection estimate should land close.
        assert row["mean_abs_rel_error"] < 0.25

    def test_disabled_obs_records_nothing(self):
        def app(hmpi):
            hmpi.recon()
            return hmpi.rank

        result = run_hmpi(app, uniform_network([100.0] * 2))
        assert result.results == [0, 1]


class TestFTJacobiEmissions:
    """Acceptance criterion: one FT Jacobi run emits all three surfaces."""

    @pytest.fixture(scope="class")
    def ft_run(self):
        from repro.apps.jacobi import run_jacobi_ft
        from repro.cluster import FaultSchedule, inject_faults

        cluster = uniform_network([100.0] * 5)
        inject_faults(cluster, FaultSchedule({"m02": 0.05}))
        obs = Observability()
        result = run_jacobi_ft(cluster, n=30, p=4, niter=6, k=50, seed=0,
                               obs=obs)
        return obs, result

    def test_run_succeeded_with_repair(self, ft_run):
        obs, result = ft_run
        assert result.error is None
        assert result.repairs >= 1

    def test_metrics_snapshot(self, ft_run):
        obs, result = ft_run
        snap = obs.snapshot()
        values = {s["name"]: s for s in snap["metrics"]}
        assert values["hmpi.ranks.dead"]["value"] == 1.0
        assert values["hmpi.repairs"]["value"] >= 1.0
        assert values["hmpi.checkpoint.saves"]["value"] == \
            result.checkpoint_saves
        assert values["hmpi.checkpoint.save_bytes"]["count"] == \
            result.checkpoint_saves
        assert values["hmpi.selection.cache_misses"]["value"] >= 1.0
        assert snap["vtime"]["max"] > 0.0

    def test_repair_spans_nest_redistribution(self, ft_run):
        obs, _ = ft_run
        repairs = obs.spans.by_name("HMPI_Group_repair")
        assert repairs
        host = [s for s in repairs if s.attrs.get("role") == "host"]
        assert host
        assert "survivors" in host[0].attrs
        assert "new_gid" in host[0].attrs

    def test_chrome_trace_valid(self, ft_run):
        from repro.obs import validate_chrome_trace

        obs, _ = ft_run
        doc = obs.chrome_trace()
        assert validate_chrome_trace(doc) == []
        assert len(doc["traceEvents"]) > 0

    def test_accuracy_report(self, ft_run):
        obs, _ = ft_run
        report = obs.accuracy.report()
        assert report["Jacobi"]["measured"] >= 1
        assert report["Jacobi"]["mean_abs_rel_error"] is not None


class TestEngineFTEvents:
    def test_retransmit_events_traced(self):
        from repro.cluster import (
            TransientFaultConfig,
            TransientLinkFaults,
            attach_transient_faults,
        )
        from repro.mpi import run_mpi

        import numpy as np

        cluster = uniform_network([100.0] * 2)
        cfg = TransientFaultConfig(drop_prob=0.9)
        attach_transient_faults(cluster, TransientLinkFaults(cfg, seed=7))
        obs = Observability()

        def app(env):
            c = env.comm_world
            if env.rank == 0:
                for i in range(10):
                    c.send(np.zeros(100), 1, tag=i)
            else:
                for i in range(10):
                    c.recv(0, tag=i)

        run_mpi(app, cluster, tracer=obs.tracer)
        retrans = obs.tracer.by_kind("retransmit")
        assert retrans        # 90% drop over 10 sends: certain at seed 7
        assert all(e.t1 > e.t0 for e in retrans)
        assert all(e.peer == 1 for e in retrans)

    def test_collective_events_traced(self):
        from repro.mpi import run_mpi

        obs = Observability()

        def app(env):
            from repro.mpi.ops import SUM

            env.comm_world.barrier()
            env.comm_world.allreduce(1.0, SUM)

        run_mpi(app, uniform_network([100.0] * 3), tracer=obs.tracer)
        colls = obs.tracer.by_kind("coll")
        labels = {e.label for e in colls}
        assert {"barrier", "allreduce"} <= labels
        assert len([e for e in colls if e.label == "barrier"]) == 3
