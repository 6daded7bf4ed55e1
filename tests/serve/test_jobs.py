"""Finished jobs are cold records: what one costs, and what it still answers."""

import asyncio
import json
import tracemalloc
import urllib.request

from repro.apps.em3d import generate_problem
from repro.apps.em3d.model import EM3D_MODEL_SOURCE
from repro.serve import Executor, JobStore, ServeServer, validate_request


def warm_request() -> dict:
    """The suite's ``serve_warm`` shape: EM3D p = 8 on the paper network."""
    prob = generate_problem(p=8, total_nodes=24000, seed=1,
                            boundary_fraction=0.3)
    return {"op": "timeof", "model": EM3D_MODEL_SOURCE, "cluster": "paper",
            "tenant": "client-0",
            "params": {"p": 8, "k": 100, "d": prob.d.tolist(),
                       "dep": prob.dep.tolist()}}


def fetch(url: str, body: bytes | None = None) -> bytes:
    req = urllib.request.Request(url, data=body)
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.read()


def test_a_finished_job_retains_at_most_2_5_kb():
    wire = json.dumps(warm_request())
    result = json.dumps(Executor().execute(validate_request(json.loads(wire))))
    store = JobStore()
    assert store.retain_finished == 4096
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(1000):
            # As the server sees it: every request and every result is
            # parsed from its own bytes, nothing is shared between jobs.
            body = wire.encode()
            job = store.submit(validate_request(json.loads(body)), body)
            job.done_event = asyncio.Event()
            assert store.finish(job, status="done", result=json.loads(result))
        del body, job
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert store.counts()["status_done"] == 1000
    assert (after - before) / 1000 <= 2500  # ~6.5 KB before jobs went cold


def test_a_cold_job_still_answers_status_and_trace():
    raw = warm_request()
    srv = ServeServer(workers=0).start_background()
    try:
        posted = fetch(srv.url + "/v1/jobs", json.dumps(raw).encode())
        doc = json.loads(posted)
        assert doc["status"] == "done"
        job = srv.store.get(doc["id"])
        assert job.done_event is None and job.request is None
        assert fetch(f"{srv.url}/v1/jobs/{doc['id']}") == posted
        # The trace is computed from the stored body, validated again.
        served = json.loads(fetch(f"{srv.url}/v1/jobs/{doc['id']}/trace"))
        direct = Executor().trace(validate_request(dict(raw)))
        assert served == json.loads(json.dumps(direct))
        assert fetch(f"{srv.url}/v1/jobs/{doc['id']}") == posted
    finally:
        srv.stop()
