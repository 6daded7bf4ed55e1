"""Concurrent serving over real HTTP: isolation, batching, degradation.

Everything runs against in-process servers (inline lanes) on ephemeral
ports, except the worker-death case, which needs a process to kill; the
rest of the multiprocessing path is covered by the suite's
``serve_miss`` workload and the CI smoke job.
"""

import json
import threading
import time

import pytest

from repro.obs import parse_openmetrics
from repro.serve import (
    Executor,
    ServeClient,
    ServeHTTPError,
    ServeServer,
    validate_request,
)
from repro.serve.protocol import canonical_digest, cluster_digest

RING = """
algorithm Ring(int p, int v[p]) {
  coord I=p;
  node {I>=0: bench*(v[I]);};
  link (L=p) { L == (I+1)%p : length*(64) [L]->[I]; };
  parent[0];
}
"""

#: A campaign cell that takes a few hundred ms — the "slow tenant" payload.
SLOW_CAMPAIGN = {
    "name": "slow", "app": "iterative",
    "fixed": {"cluster": {"kind": "uniform", "speeds": [100] * 6},
              "n": 48, "niter": 3000, "k": 100, "p": 5, "chunk": 3000},
    "axes": {"policy": ["never"]},
}


def ring_job(v, **over):
    raw = {"op": "timeof", "model": RING,
           "params": {"p": len(v), "v": v}, "cluster": "paper"}
    raw.update(over)
    return raw


def park_lane_of(server, cluster="paper") -> str:
    """Keep the lane ``cluster`` shards to busy for most of a second with
    a slow campaign cell (``wait=0``); returns the parking job's id."""
    lane = server._pool.lane_of(cluster_digest(cluster))
    for salt in range(64):
        campaign = {**SLOW_CAMPAIGN, "name": f"slow-{salt}"}
        if server._pool.lane_of(canonical_digest(campaign)) == lane:
            doc = ServeClient(server.url, tenant="parker").submit(
                {"op": "campaign_cell", "campaign": campaign, "cell": 0},
                wait=0)
            assert doc["status"] == "running"
            return doc["id"]
    raise AssertionError(f"no campaign name shards to lane {lane}")


def metric_total(text: str, family: str, **labels) -> float:
    """Sum of a counter family's samples matching the given labels."""
    fam = parse_openmetrics(text).get(family)
    if fam is None:
        return 0.0
    return sum(value for name, got, value in fam["samples"]
               if name == f"{family}_total"
               and all(got.get(k) == v for k, v in labels.items()))


@pytest.fixture()
def server():
    srv = ServeServer(workers=0).start_background()
    yield srv
    srv.stop()


class TestParallelIsolation:
    def test_hammering_clients_get_their_own_answers(self, server):
        # Each client's params differ; each response must carry the
        # prediction for *its* params, bitwise equal to a local Executor.
        payloads = [[10 * (i + 1)] * 4 for i in range(12)]
        expected = {}
        ex = Executor()
        for v in payloads:
            expected[tuple(v)] = ex.execute(
                validate_request(ring_job(v)))["predicted_time"]
        assert len(set(expected.values())) == len(payloads)  # all distinct

        results: dict[int, object] = {}

        def hammer(i, v):
            client = ServeClient(server.url, tenant=f"tenant-{i}")
            try:
                results[i] = client.timeof(RING,
                                           params={"p": len(v), "v": v},
                                           cluster="paper")
            except Exception as exc:  # pragma: no cover - surfaced below
                results[i] = exc

        threads = [threading.Thread(target=hammer, args=(i, v))
                   for i, v in enumerate(payloads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert results == {
            i: expected[tuple(v)] for i, v in enumerate(payloads)}

    def test_burst_behind_a_busy_lane_coalesces_to_one_batch(self, server):
        # Nothing waits on an idle lane, so the burst is fired while its
        # lane is busy: 8 jobs queue behind the parked cell and leave as
        # one batch — 1 evaluation, 7 coalesced.
        park_lane_of(server)
        results = []

        def submit(i):
            client = ServeClient(server.url, tenant=f"burst-{i}")
            results.append(client.timeof(
                RING, params={"p": 4, "v": [5, 5, 5, 5]}, cluster="paper"))

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(results) == 8 and len(set(results)) == 1  # one answer, shared
        stats = ServeClient(server.url).healthz()["batcher"]
        assert stats["jobs_in"] == 9
        assert stats["coalesced"] == 7
        text = ServeClient(server.url).metrics_text()
        assert metric_total(text, "serve_jobs_coalesced") == 7
        assert metric_total(text, "serve_batches_dispatched") == 2

    def test_an_idle_lane_dispatches_at_once(self, server):
        client = ServeClient(server.url, tenant="solo")
        for _ in range(3):
            client.timeof(RING, params={"p": 4, "v": [5, 5, 5, 5]},
                          cluster="paper")
        stats = client.healthz()["batcher"]
        assert (stats["jobs_in"], stats["batches_out"],
                stats["coalesced"], stats["pending"]) == (3, 3, 0, 0)

    def test_a_busy_lane_keeps_arrival_order_across_speed_updates(self, server):
        # speeds=A, plain, speeds=B, plain queue behind one busy lane; the
        # two plain jobs are identical, and coalescing them would answer
        # the second under the epoch of update A.
        park_lane_of(server)
        a = [9.0, 106.0, 176.0] * 3
        b = [176.0] * 9
        raws = [ring_job([5, 5, 5, 5], speeds=a), ring_job([5, 5, 5, 5]),
                ring_job([5, 5, 5, 5], speeds=b), ring_job([5, 5, 5, 5])]
        client = ServeClient(server.url, tenant="recon")
        docs = [client.submit(raw, wait=0) for raw in raws]
        assert [doc["status"] for doc in docs] == ["queued"] * 4
        served = [client.wait(doc["id"], timeout=30)["result"] for doc in docs]
        direct = Executor()
        expected = [direct.execute(validate_request(dict(raw))) for raw in raws]
        strip = lambda res: {k: v for k, v in res.items() if k != "cache"}
        assert [strip(r) for r in served] == [strip(r) for r in expected]
        epochs = [r["speed_epoch"] for r in served]
        assert 0 < epochs[0] == epochs[1] < epochs[2] == epochs[3]
        assert served[1]["predicted_time"] != served[3]["predicted_time"]


class TestCacheMetrics:
    def test_cache_hits_observable_per_tenant(self, server):
        a = ServeClient(server.url, tenant="team-a")
        b = ServeClient(server.url, tenant="team-b")
        v = [7, 7, 7, 7]
        first = a.timeof(RING, params={"p": 4, "v": v}, cluster="paper")
        second = b.timeof(RING, params={"p": 4, "v": v}, cluster="paper")
        assert first == second
        text = a.metrics_text()
        # team-a paid the miss; team-b rode the shared selection cache.
        assert metric_total(text, "serve_cache_misses", tenant="team-a") == 1
        assert metric_total(text, "serve_cache_hits", tenant="team-b") == 1
        assert metric_total(text, "serve_jobs_submitted", tenant="team-a") == 1
        assert metric_total(text, "serve_jobs_completed",
                            tenant="team-b", status="done") == 1


class TestDegradation:
    def test_running_job_counts_against_the_tenant_quota(self):
        srv = ServeServer(workers=0,
                          max_inflight_per_tenant=1).start_background()
        try:
            greedy = ServeClient(srv.url, tenant="greedy")
            polite = ServeClient(srv.url, tenant="polite")
            # The first job is running, not waiting — still in flight, so
            # the second overruns the tenant's quota.
            first = greedy.submit({"op": "campaign_cell",
                                   "campaign": SLOW_CAMPAIGN, "cell": 0},
                                  wait=0)
            assert first["status"] == "running"
            with pytest.raises(ServeHTTPError) as err:
                greedy.submit(ring_job([2, 2, 2, 2]), wait=0)
            assert err.value.status == 429
            assert "quota" in str(err.value)
            # Another tenant is not affected by greedy's rejection.
            doc = polite.submit(ring_job([3, 3, 3, 3]), wait=0)
            assert doc["status"] in ("queued", "running")
            text = ServeClient(srv.url).metrics_text()
            assert metric_total(text, "serve_jobs_rejected",
                                tenant="greedy") == 1
        finally:
            srv.stop()

    def test_job_budget_expires_to_504_timeout(self, server):
        client = ServeClient(server.url, tenant="hasty")
        with pytest.raises(ServeHTTPError) as err:
            client.submit({"op": "campaign_cell", "campaign": SLOW_CAMPAIGN,
                           "cell": 0, "timeout": 0.05}, wait=5)
        assert err.value.status == 504
        doc = err.value.payload
        assert doc["status"] == "timeout"
        assert "budget" in doc["error"]
        # The late worker result is discarded: the job stays timed out.
        time.sleep(1.5)
        assert client.job(doc["id"])["status"] == "timeout"
        text = client.metrics_text()
        assert metric_total(text, "serve_jobs_completed",
                            tenant="hasty", status="timeout") == 1

    def test_wait_expiry_is_504_but_job_completes(self, server):
        client = ServeClient(server.url, tenant="patient")
        with pytest.raises(ServeHTTPError) as err:
            client.submit({"op": "campaign_cell", "campaign": SLOW_CAMPAIGN,
                           "cell": 0}, wait=0.05)
        assert err.value.status == 504
        doc = err.value.payload
        assert "poll the id" in doc["error"]
        final = client.wait(doc["id"], timeout=30)
        assert final["status"] == "done"
        assert final["result"]["metrics"]["outcome"] == "done"

    def test_slow_tenant_cannot_starve_a_fast_one(self, server):
        # The slow tenant parks several long cells on its world's lane
        # (wait=0).  A fast tenant whose world shards to a *different*
        # lane must keep answering promptly while they grind.
        slow_lane = server._pool.lane_of(canonical_digest(SLOW_CAMPAIGN))
        fast_cluster = None
        for n in range(4, 12):
            spec = {"kind": "homogeneous", "n": n}
            if server._pool.lane_of(cluster_digest(spec)) != slow_lane:
                fast_cluster = spec
                break
        assert fast_cluster is not None
        slow = ServeClient(server.url, tenant="slow")
        fast = ServeClient(server.url, tenant="fast")
        ids = [slow.submit({"op": "campaign_cell",
                            "campaign": SLOW_CAMPAIGN, "cell": 0},
                           wait=0)["id"]
               for _ in range(3)]
        t0 = time.monotonic()
        predicted = fast.timeof(
            RING, params={"p": 4, "v": [9, 9, 9, 9]},
            cluster=fast_cluster)
        fast_elapsed = time.monotonic() - t0
        # Three ~0.5s cells are queued on one lane; the fast answer must
        # not have waited for that queue to drain.
        assert predicted > 0
        assert fast_elapsed < 1.0
        for jid in ids:
            assert slow.wait(jid, timeout=30)["status"] == "done"


class TestBusyLaneLiveness:
    """A lane's outstanding count falls on every way a task ends."""

    def test_worker_death_fails_its_batch_and_frees_the_lane(self):
        cell = {"op": "campaign_cell", "cell": 0,
                "campaign": {**SLOW_CAMPAIGN, "fixed": {
                    **SLOW_CAMPAIGN["fixed"], "niter": 1000}}}
        srv = ServeServer(workers=1).start_background()
        try:
            client = ServeClient(srv.url, tenant="doomed")
            # One cell runs; three identical ones coalesce behind it.
            ids = [client.submit(cell, wait=0)["id"] for _ in range(4)]
            assert client.wait(ids[0], timeout=30)["status"] == "done"
            deadline = time.monotonic() + 5
            while client.job(ids[1])["status"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            queued = [client.submit(ring_job([i, i, i, i]), wait=0)
                      for i in (1, 2)]
            assert [doc["status"] for doc in queued] == ["queued"] * 2
            srv._pool._procs[0].kill()
            for jid in ids[1:]:
                doc = client.wait(jid, timeout=5)
                assert doc["status"] == "error"
                assert "worker process died" in doc["error"]
            # The queued jobs go to the respawned lane; its caches start
            # empty, so what it answers is what a fresh executor answers.
            served = [client.wait(doc["id"], timeout=5) for doc in queued]
            assert [doc["status"] for doc in served] == ["done"] * 2
            again = client.submit(ring_job([1, 1, 1, 1]), wait=5)["result"]
            direct = Executor().execute(
                validate_request(ring_job([1, 1, 1, 1])))
            assert again["cache"] == "hit"
            assert {**again, "cache": "miss"} == direct
            text = client.metrics_text()
            assert metric_total(text, "serve_jobs_coalesced") == 2
            assert metric_total(text, "serve_jobs_completed",
                                status="error") == 3
            assert client.healthz()["jobs"]["inflight"] == 0
        finally:
            srv.stop()

    def test_budget_expiring_in_the_queue_is_504_and_never_shipped(self, server):
        parker = park_lane_of(server)
        client = ServeClient(server.url, tenant="hasty")
        with pytest.raises(ServeHTTPError) as err:
            client.submit(ring_job([4, 4, 4, 4], timeout=0.05), wait=5)
        assert err.value.status == 504
        expired = err.value.payload
        assert expired["status"] == "timeout"
        assert client.wait(parker, timeout=30)["status"] == "done"
        # The drain that follows the parked cell skips the expired job,
        # and the lane is idle again for the next one.
        assert client.submit(ring_job([4, 4, 4, 4]), wait=5)["status"] == "done"
        assert client.job(expired["id"]) == expired
        text = client.metrics_text()
        assert metric_total(text, "serve_batches_dispatched") == 2
        assert client.healthz()["batcher"]["pending"] == 0

    def test_a_trace_that_outlives_its_wait_does_not_wedge_the_lane(self):
        srv = ServeServer(workers=0, default_wait=0.2).start_background()
        try:
            client = ServeClient(srv.url, tenant="tracer")
            done = client.submit(ring_job([6, 6, 6, 6]), wait=5)
            assert client.trace(done["id"])["traceEvents"]
            other = client.submit(ring_job([7, 7, 7, 7]), wait=5)
            # This trace queues behind the parked cell and is given up on;
            # its late result must still be counted off the lane.
            park_lane_of(srv)
            with pytest.raises(ServeHTTPError) as err:
                client.trace(other["id"])
            assert "timed out" in str(err.value)
            assert client.submit(ring_job([8, 8, 8, 8]),
                                 wait=10)["status"] == "done"
            assert not +srv._outstanding
        finally:
            srv.stop()

    def test_stop_fails_what_is_running_or_queued(self):
        srv = ServeServer(workers=0).start_background()
        parker = park_lane_of(srv)
        queued = ServeClient(srv.url, tenant="late").submit(
            ring_job([4, 4, 4, 4]), wait=0)
        assert queued["status"] == "queued"
        srv.stop()
        for jid in (parker, queued["id"]):
            job = srv.store.get(jid)
            assert (job.status, job.status_code) == ("error", 503)
            assert "server stopped" in job.document()
        assert srv.store.inflight() == 0
        assert not +srv._outstanding


class TestProtocolSurface:
    def test_wait_zero_gives_202_then_poll(self, server):
        client = ServeClient(server.url, tenant="poller")
        doc = client.submit(ring_job([4, 4, 4, 4]), wait=0)
        assert doc["status"] in ("queued", "running")
        final = client.wait(doc["id"], timeout=30)
        assert final["status"] == "done"
        assert final["result"]["op"] == "timeof"
        assert final["result"]["mapping"]["time"] > 0

    def test_trace_export_of_a_done_job(self, server):
        client = ServeClient(server.url, tenant="tracer")
        doc = client.submit(ring_job([6, 6, 6, 6]))
        assert doc["status"] == "done"
        trace = client.trace(doc["id"])
        assert trace["traceEvents"]
        meta = trace["otherData"]
        assert meta["predicted_time"] == doc["result"]["mapping"]["time"]
        assert meta["model_digest"] == doc["result"]["model_digest"]

    def test_trace_of_a_check_job_is_400(self, server):
        client = ServeClient(server.url, tenant="tracer")
        doc = client.submit({"op": "check", "model": RING})
        assert doc["status"] == "done"
        with pytest.raises(ServeHTTPError) as err:
            client.trace(doc["id"])
        assert err.value.status == 400

    def test_unknown_job_is_404(self, server):
        client = ServeClient(server.url)
        with pytest.raises(ServeHTTPError) as err:
            client.job("j99999999")
        assert err.value.status == 404

    def test_invalid_request_is_400_with_reason(self, server):
        client = ServeClient(server.url)
        with pytest.raises(ServeHTTPError) as err:
            client.submit({"op": "timeof", "model": RING,
                           "cluster": "paper", "mapper": "magic"})
        assert err.value.status == 400
        assert "unknown mapper" in str(err.value)

    def test_hostile_tenant_is_400_and_metrics_still_parse(self, server):
        # Minimised from ROADMAP 9(4): this tenant used to become a label
        # value the strict scrape parser rejected.
        client = ServeClient(server.url, tenant="a}b{")
        with pytest.raises(ServeHTTPError) as err:
            client.submit(ring_job([4, 4, 4, 4]))
        assert err.value.status == 400
        assert "[A-Za-z0-9_.:@-]" in str(err.value)
        ServeClient(server.url).timeof(
            RING, params={"p": 4, "v": [4, 4, 4, 4]}, cluster="paper")
        text = client.metrics_text()
        assert "a}b{" not in text
        assert metric_total(text, "serve_jobs_submitted") == 1

    def test_non_json_body_is_400(self, server):
        import urllib.error
        import urllib.request
        req = urllib.request.Request(
            server.url + "/v1/jobs", data=b"not json", method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=5)
        assert err.value.code == 400

    def test_method_misuse_is_405(self, server):
        import urllib.error
        import urllib.request
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/v1/jobs", timeout=5)
        assert err.value.code == 405

    def test_monitoring_surface_is_mounted(self, server):
        client = ServeClient(server.url)
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["protocol"] == 1
        assert "jobs" in health and "batcher" in health
        parse_openmetrics(client.metrics_text())  # strict format check

    def test_events_hardening_applies_to_the_job_server_too(self, server):
        import urllib.error
        import urllib.request
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/events?n=-3", timeout=5)
        assert err.value.code == 400
        with urllib.request.urlopen(server.url + "/events?n=5",
                                    timeout=5) as resp:
            assert resp.status == 200

    def test_execution_error_is_typed_not_a_500_crash(self, server):
        client = ServeClient(server.url, tenant="oops")
        with pytest.raises(ServeHTTPError) as err:
            client.submit({"op": "timeof", "model": RING,
                           "params": {"p": 4, "v": [1, 2, 3]},  # wrong len
                           "cluster": "paper"})
        assert err.value.status == 400  # typed, not a 500
        doc = err.value.payload
        assert doc["status"] == "error"
        assert "bind" in doc["error"]
        # The job stayed pollable with its typed error.
        assert client.job(doc["id"])["status"] == "error"

    def test_served_check_reports_real_diagnostics(self, server):
        client = ServeClient(server.url, tenant="checker")
        result = client.check("algorithm Broken(int p) { coord I=p; }")
        assert result["op"] == "check"
        assert isinstance(result["report"], dict)

    #: A model the front end must refuse, not choke on: before the lexer's
    #: literal bound this was an ``int()`` ValueError and an HTTP 500.
    HUGE_LITERAL = RING.replace("64", "1" * 5000)

    def test_served_check_of_a_hostile_model_is_a_200_report(self, server):
        client = ServeClient(server.url, tenant="checker")
        result = client.check(self.HUGE_LITERAL)
        assert result["exit_code"] == 1
        assert [d["code"] for d in result["report"]["diagnostics"]] == ["PM001"]

    def test_served_timeof_of_a_hostile_model_is_400(self, server):
        client = ServeClient(server.url, tenant="checker")
        with pytest.raises(ServeHTTPError) as err:
            client.submit(ring_job([4, 4, 4, 4], model=self.HUGE_LITERAL))
        assert err.value.status == 400
        assert "literal longer" in str(err.value)
        assert client.healthz()["status"] == "ok"


class TestJobStoreAccounting:
    def test_healthz_counts_settle_after_a_burst(self, server):
        client = ServeClient(server.url, tenant="auditor")
        for i in range(3):
            client.timeof(RING, params={"p": 4, "v": [i + 1] * 4},
                          cluster="paper")
        health = client.healthz()
        assert health["jobs"]["inflight"] == 0
        assert health["jobs"]["submitted"] >= 3
