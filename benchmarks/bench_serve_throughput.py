"""Serving throughput — batched warm-cache serving vs naive evaluation.

The server exists because `HMPI_Timeof` is a pure function of
(model, cluster, params): identical-shape requests hit the
speed-epoch-keyed selection cache (and coalesce when they queue behind a
busy lane), so the marginal cost of a served prediction is HTTP framing,
not a selection.
This bench pins that claim on an identical-shape Timeof workload (the
capacity-planning case: many tenants asking the same question about the
same world):

- **naive** — one-job-at-a-time evaluation, each request paying the
  full compile + world build + selection a standalone script pays
  (fresh :class:`~repro.serve.exec.Executor` per request);
- **served** — concurrent clients against a warm in-process
  :class:`~repro.serve.server.ServeServer`, requests riding the shared
  selection cache.

The served pipeline must sustain **≥ 5×** the naive request throughput.
(Burst coalescing is pinned in tier-1:
``tests/serve/test_server.py::test_burst_behind_a_busy_lane_coalesces_to_one_batch``.)

With ``--smoke``, a quick regression check compares served throughput
against ``benchmarks/baselines/serve_smoke.json`` (fails below half the
recorded rate, with a generous floor for slow shared runners).
"""

import json
import pathlib
import threading
import time

import pytest

from repro.apps.em3d import generate_problem
from repro.apps.em3d.model import EM3D_MODEL_SOURCE
from repro.serve import Executor, ServeClient, ServeServer, validate_request
from repro.util.tables import Table

NAIVE_JOBS = 40
CLIENTS = 16
PER_CLIENT = 8
BASELINE_PATH = pathlib.Path(__file__).parent / "baselines" / "serve_smoke.json"

_problem = generate_problem(p=8, total_nodes=24_000, seed=5,
                            boundary_fraction=0.3)
PARAMS = {"p": 8, "k": 100, "d": _problem.d.tolist(),
          "dep": _problem.dep.tolist()}
RAW = {"op": "timeof", "model": EM3D_MODEL_SOURCE, "params": PARAMS,
       "cluster": "paper"}


def _naive_throughput(jobs: int) -> tuple[float, float]:
    """One-job-at-a-time: every request pays the whole evaluation."""
    from repro.perfmodel import clear_compile_cache

    req = validate_request(dict(RAW))
    t0 = time.perf_counter()
    for _ in range(jobs):
        clear_compile_cache()  # a fresh process has no compile cache
        Executor().execute(req)
    wall = time.perf_counter() - t0
    return jobs / wall, wall


def _served_throughput(clients: int, per_client: int) -> tuple[float, float]:
    """Concurrent identical-shape clients against a warm server."""
    server = ServeServer(workers=0).start_background()
    try:
        ServeClient(server.url, tenant="warm").timeof(
            EM3D_MODEL_SOURCE, params=PARAMS, cluster="paper")
        errors: list[Exception] = []

        def hammer(i: int) -> None:
            client = ServeClient(server.url, tenant=f"tenant-{i}")
            for _ in range(per_client):
                try:
                    client.timeof(EM3D_MODEL_SOURCE, params=PARAMS,
                                  cluster="paper")
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(clients)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        assert not errors, errors[:1]
        return clients * per_client / wall, wall
    finally:
        server.stop()


def test_serve_throughput(report):
    """Batched warm-cache serving must beat naive evaluation ≥ 5×."""
    naive_rps, naive_wall = _naive_throughput(NAIVE_JOBS)
    served_rps, served_wall = max(
        (_served_throughput(CLIENTS, PER_CLIENT) for _ in range(2)),
        key=lambda r: r[0])

    t = Table("pipeline", "requests", "req/sec", "wall (s)",
              title="Serving throughput — identical-shape EM3D Timeof "
                    f"(p=8, paper cluster)")
    t.add("naive one-job-at-a-time", NAIVE_JOBS, f"{naive_rps:,.0f}",
          f"{naive_wall:.2f}")
    t.add(f"served ({CLIENTS} clients, warm cache)",
          CLIENTS * PER_CLIENT, f"{served_rps:,.0f}", f"{served_wall:.2f}")
    t.add("speedup (x)", "", f"{served_rps / naive_rps:.1f}", "")
    report.emit(t.render())

    assert served_rps >= 5.0 * naive_rps, (
        f"served {served_rps:,.0f} req/s is less than 5x the naive "
        f"{naive_rps:,.0f} req/s")


def test_serve_throughput_smoke(smoke):
    """Fail if warm-cache serving regressed >2x vs the recorded baseline,
    or no longer clears the 5x gate over naive evaluation."""
    if not smoke:
        pytest.skip("smoke regression check runs with --smoke")
    baseline = json.loads(BASELINE_PATH.read_text())
    naive_rps, _ = _naive_throughput(10)
    best = 0.0
    for _ in range(3):
        served_rps, _ = _served_throughput(8, 4)
        best = max(best, served_rps)
    assert best >= 5.0 * naive_rps, (
        f"served {best:,.0f} req/s is less than 5x naive {naive_rps:,.0f}")
    floor = min(0.5 * baseline["served_req_per_sec"], 300.0)
    assert best >= floor, (
        f"served {best:,.0f} req/s, floor {floor:,.0f} (baseline "
        f"{baseline['served_req_per_sec']:,.0f} recorded "
        f"{baseline['recorded']})")
