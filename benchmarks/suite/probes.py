"""Layer probes: per-layer costs measured from outside, one span each.

Every probe times calls into public ``repro.*`` functions on small fixed
shapes (inputs still derive from ``--seed``) and reports a median.  The
probes do not depend on the workload that was just measured, so the same
per-layer table comes out of every traced run; what is specific to the
workload (``bench.share.*``, ``bench.trace_overhead_pct``) is computed in
``run.py`` from the workload's own spans.

Counts (``*.evaluations.*``, ``mpi.task_switches``, ...) are read from
the program's existing public counters and repeat exactly for one seed.
"""

from __future__ import annotations

import os
import shutil
import statistics
import threading

import harness
from harness import INPUTS, OUT_DIR, SpanRecorder, timed
from workloads import (
    SHAPES,
    bind_args,
    closed_loop,
    model_source,
    ring_app,
    sub_seed,
)

US, MS = 1e6, 1e3


def run_all(rec: SpanRecorder, seed: int, quick: bool) -> dict[str, float]:
    """Run every probe group with the recorder on; returns the metrics."""
    rec.enabled = True
    ctx = _Ctx(rec, seed, quick)
    out: dict[str, float] = {}
    for group in (cluster, perfmodel, core, mpi, apps, campaign, serve, obs):
        with rec.span(f"probe.{group.__name__}", group.__name__):
            out.update(group(ctx))
    rec.enabled = False
    return out


class _Ctx:
    """What the probe groups share: recorder, seed, sizes, common inputs."""

    def __init__(self, rec: SpanRecorder, seed: int, quick: bool):
        from repro.cluster import paper_network, uniform_network
        from repro.core import NetworkModel

        self.rec, self.seed, self.quick = rec, seed, quick
        self.reps = 1 if quick else 5
        self.scale = 8 if quick else 1  # rank counts shrink in quick mode
        self.paper = paper_network()
        self.netmodel = NetworkModel(self.paper, list(range(self.paper.size)))
        self.flat64 = uniform_network([100.0] * 64)
        self.em3d_source = model_source("em3d")

    def t(self, name: str, layer: str, fn, *, reps: int | None = None,
          inner: int = 1) -> float:
        return timed(self.rec, name, layer, fn,
                     reps=self.reps if reps is None else min(reps, self.reps),
                     inner=inner)

    def em3d_params(self, p: int, tag: str) -> dict:
        return bind_args("em3d", {"p": p}, sub_seed(self.seed, tag))[2]


# ----------------------------------------------------------------------

def cluster(c: _Ctx) -> dict:
    from repro.cluster import paper_network
    from repro.core import NetworkModel

    placement = list(range(c.paper.size))
    return {
        "cluster.build_us": c.t("cluster.build", "cluster", paper_network,
                                inner=20) * US,
        "cluster.netmodel_build_us": c.t(
            "cluster.netmodel_build", "cluster",
            lambda: NetworkModel(c.paper, placement), inner=20) * US,
        "cluster.transfer_time_ns": c.t(
            "cluster.transfer_time", "cluster",
            lambda: c.netmodel.transfer_time(0, 1, 4096.0),
            inner=2000) * 1e9,
    }


def perfmodel(c: _Ctx) -> dict:
    from repro.perfmodel import compile_source, lower_model, parse, tokenize

    src = c.em3d_source
    params = c.em3d_params(8, "probe/perfmodel")
    model = compile_source(src)["Em3d"]

    def bind():
        bound = model.bind(**params)
        bound.node_volumes()
        bound.link_volumes()
        return bound

    lex = c.t("perfmodel.lex", "perfmodel", lambda: tokenize(src), inner=5)
    parse_all = c.t("perfmodel.parse", "perfmodel", lambda: parse(src),
                    inner=5)
    bare = c.t("perfmodel.compile_no_analyze", "perfmodel",
               lambda: compile_source(src, analyze=False), inner=3)
    full = c.t("perfmodel.compile", "perfmodel",
               lambda: compile_source(src), inner=3)
    netted = c.t("perfmodel.compile_net_check", "perfmodel",
                 lambda: compile_source(src, net_check=True), inner=3)
    bound = bind()
    net = lower_model(bound)
    return {
        "perfmodel.lex_us": lex * US,
        "perfmodel.parse_us": (parse_all - lex) * US,
        "perfmodel.analyze_us": (full - bare) * US,
        "perfmodel.compile_us": full * US,
        "perfmodel.netcheck_us": (netted - full) * US,
        "perfmodel.bind_us": c.t("perfmodel.bind", "perfmodel", bind,
                                 inner=3) * US,
        "perfmodel.lower_us": c.t("perfmodel.lower", "perfmodel",
                                  lambda: lower_model(bound), inner=3) * US,
        "perfmodel.net_events": len(net.events),
    }


def core(c: _Ctx) -> dict:
    import numpy as np
    from repro.cluster import paper_network
    from repro.core import (
        HMPIRuntimeState,
        SelectionStats,
        estimate_time,
        resolve_mapper,
        run_hmpi,
    )
    from repro.core.seleng import make_evaluator
    from repro.mpi import run_mpi
    from repro.perfmodel import compile_source

    out = {}
    netmodel = c.netmodel
    jacobi = compile_source(model_source("jacobi"))["Jacobi"]
    jparams = bind_args("jacobi", {"p": 8}, sub_seed(c.seed, "probe/core"))[2]
    rng = np.random.default_rng(sub_seed(c.seed, "probe/candidates"))
    mappings = [tuple(int(m) for m in rng.integers(0, c.paper.size, size=8))
                for _ in range(240)]

    for backend in ("trace", "net"):
        out[f"core.evaluator_build_us.{backend}"] = c.t(
            f"core.evaluator_build.{backend}", "core",
            lambda: make_evaluator(jacobi.bind(**jparams), netmodel, None,
                                   backend)) * US
    bound = jacobi.bind(**jparams)
    for backend, count in (("interp", 20), ("trace", 240), ("net", 240)):
        evaluator = make_evaluator(bound, netmodel, None, backend)
        some = mappings[:count]
        out[f"core.eval_us.{backend}"] = c.t(
            f"core.eval.{backend}", "core",
            lambda: [evaluator.evaluate(m) for m in some]) * US / count
    net_eval = make_evaluator(bound, netmodel, None, "net")
    out["core.eval_batch_us.net"] = c.t(
        "core.eval_batch.net", "core",
        lambda: net_eval.evaluate_batch(mappings)) * US
    out["core.oracle_us"] = c.t(
        "core.oracle", "core",
        lambda: estimate_time(bound, netmodel, mappings[0]), inner=20) * US

    em3d = compile_source(c.em3d_source)["Em3d"].bind(
        **c.em3d_params(7, "probe/mapper"))
    candidates = list(range(netmodel.nprocs))
    fixed = {em3d.parent_index(): 0}
    for name in ("greedy", "default", "refine", "anneal", "exhaustive"):
        stats = SelectionStats()
        mapper = resolve_mapper(name)
        mapper.select(em3d, netmodel, candidates, fixed, stats=stats)
        out[f"core.evaluations.{name}"] = stats.evaluations
        if name == "exhaustive":
            out["core.symmetry_skips"] = stats.symmetry_skips
        out[f"core.mapper_ms.{name}"] = c.t(
            f"core.mapper.{name}", "core",
            lambda: mapper.select(em3d, netmodel, candidates, fixed),
            reps=3) * MS

    state = HMPIRuntimeState(netmodel)
    state.select(em3d)
    out["core.select_hit_us"] = c.t(
        "core.select_hit", "core", lambda: state.select(em3d), inner=200) * US

    def noop(_):
        return None

    bare = c.t("mpi.run_mpi_noop9", "mpi",
               lambda: run_mpi(noop, paper_network()))
    hmpi = c.t("core.run_hmpi_noop9", "core",
               lambda: run_hmpi(noop, paper_network()))
    out["core.run_hmpi_bringup_ms"] = (hmpi - bare) * MS
    return out


# ----------------------------------------------------------------------

def _noop(env):
    return None


def _ring_args(laps: int) -> tuple:
    """Arguments of ``workloads.ring_app``: tokens and 64-byte messages."""
    return list(range(laps)), [64] * laps


def _collective(env, which, rounds):
    from repro.mpi import SUM

    comm = env.comm_world
    for i in range(rounds):
        if which == "allreduce":
            comm.allreduce(env.rank + i, SUM)
        elif which == "bcast":
            comm.bcast(b"x" * 4096 if env.rank == 0 else None, root=0)
        else:
            comm.barrier()


def mpi(c: _Ctx) -> dict:
    from repro.mpi import run_mpi
    from repro.obs import EventBus

    out = {}

    def run(app, n, args=(), engine="events", **kw):
        result = run_mpi(app, c.flat64, nprocs=n, args=args, engine=engine,
                         timeout=600.0, **kw)
        assert not result.failed
        return result

    n1k, n4k, n256 = 1024 // c.scale, 4096 // c.scale, 256 // c.scale
    noop1k = c.t("mpi.noop_1k", "mpi", lambda: run(_noop, n1k))
    out["mpi.rank_startup_us.1024"] = noop1k / n1k * US
    noop4k = c.t("mpi.noop_4k", "mpi", lambda: run(_noop, n4k), reps=3)
    out["mpi.rank_startup_us.4096"] = noop4k / n4k * US

    laps = 4
    ring = c.t("mpi.ring_1k", "mpi", lambda: run(ring_app, n1k, _ring_args(laps)))
    out["mpi.p2p_event_us"] = (ring - noop1k) / (n1k * laps * 2) * US

    bus = EventBus()
    run(ring_app, n1k, _ring_args(laps), telemetry=bus)
    profile = next(e.payload for e in bus.tail() if e.name == "run.finish")
    bus.close()
    out["mpi.task_switches"] = profile["task_switches"]
    out["mpi.heap_high_water"] = profile["heap_high_water"]

    noop256 = c.t("mpi.noop_256", "mpi", lambda: run(_noop, n256))
    for which in ("allreduce", "bcast", "barrier"):
        wall = c.t(f"mpi.{which}_256", "mpi",
                   lambda: run(_collective, n256, (which, 8)), reps=3)
        out[f"mpi.{which}_us"] = (wall - noop256) / (n256 * 8) * US

    tnoop = c.t("mpi.threads_noop_256", "mpi",
                lambda: run(_noop, n256, engine="threads"), reps=3)
    tring = c.t("mpi.threads_ring_256", "mpi",
                lambda: run(ring_app, n256, _ring_args(2), engine="threads"), reps=3)
    out["mpi.threads_event_us"] = (tring - tnoop) / (n256 * 2 * 2) * US

    ring4k = c.t("mpi.ring_4k", "mpi", lambda: run(ring_app, n4k, _ring_args(2)), reps=3)
    out["mpi.ring_4k_events_per_s"] = n4k * 2 * 2 / ring4k

    # The same 1k ring with the affinity mask widened back to every CPU:
    # what the OS charges for bouncing rank hand-offs across cores.
    try:
        if harness.ALL_CPUS:
            os.sched_setaffinity(0, harness.ALL_CPUS)
        loose = c.t("mpi.ring_1k_unpinned", "mpi",
                    lambda: run(ring_app, n1k, _ring_args(laps)), reps=3)
    finally:
        harness.pin_to_one_cpu()
    out["mpi.ring_unpinned_events_per_s"] = n1k * laps * 2 / loose
    return out


def apps(c: _Ctx) -> dict:
    from repro.apps.em3d import generate_problem, run_em3d_hmpi, run_em3d_mpi
    from repro.apps.matmul import run_matmul_hmpi, run_matmul_mpi
    from repro.cluster import paper_network
    from repro.core import GreedyMapper

    f9, f11 = SHAPES["figures"]["fig09"], SHAPES["figures"]["fig11"]
    total = f9["node_counts"][0 if c.quick else -1]
    n = f11["sizes"][0 if c.quick else -1]
    pseed = sub_seed(c.seed, "probe/apps")
    kept = {}

    def keep(key, fn):
        """``fn`` as a thunk that also remembers its last result."""
        return lambda: kept.__setitem__(key, fn())

    gen = c.t("apps.em3d.generate", "apps", keep(
        "problem", lambda: generate_problem(p=f9["p"], total_nodes=total,
                                            seed=pseed)))
    kw = {"niter": f9["niter"], "k": f9["k"]}
    e_mpi = c.t("apps.em3d.mpi", "apps", keep(
        "e_mpi", lambda: run_em3d_mpi(paper_network(), kept["problem"],
                                      **kw)), reps=3)
    e_hmpi = c.t("apps.em3d.hmpi", "apps", keep(
        "e_hmpi", lambda: run_em3d_hmpi(paper_network(), kept["problem"],
                                        procs_per_machine=2, **kw)), reps=3)
    mkw = {"n": n, "r": f11["r"], "m": f11["m"], "seed": pseed}
    m_mpi = c.t("apps.matmul.mpi", "apps", keep(
        "m_mpi", lambda: run_matmul_mpi(paper_network(), **mkw)), reps=3)
    m_hmpi = c.t("apps.matmul.hmpi", "apps", keep(
        "m_hmpi", lambda: run_matmul_hmpi(paper_network(), l=f11["l"],
                                          mapper=GreedyMapper(), **mkw)),
        reps=3)
    errs = [abs(r.predicted_time - r.algorithm_time) / r.algorithm_time
            for r in (kept["e_hmpi"], kept["m_hmpi"])]
    return {
        "apps.em3d.generate_ms": gen * MS,
        "apps.em3d.mpi_ms": e_mpi * MS,
        "apps.em3d.hmpi_ms": e_hmpi * MS,
        "apps.matmul.mpi_ms": m_mpi * MS,
        "apps.matmul.hmpi_ms": m_hmpi * MS,
        "apps.hmpi_share": (e_hmpi + m_hmpi) / (e_mpi + e_hmpi + m_mpi + m_hmpi),
        "apps.timeof_pred_err_pct": max(errs) * 100.0,
        "apps.hmpi_speedup.em3d": (kept["e_mpi"].algorithm_time
                                   / kept["e_hmpi"].algorithm_time),
        "apps.hmpi_speedup.matmul": (kept["m_mpi"].algorithm_time
                                     / kept["m_hmpi"].algorithm_time),
    }


def campaign(c: _Ctx) -> dict:
    from repro.campaign import (
        ResultsWriter,
        load_config,
        run_campaign,
        run_one,
    )

    out = {}
    path = INPUTS / "campaigns" / "ft_sweep.json"
    out["campaign.load_us"] = c.t("campaign.load", "campaign",
                                  lambda: load_config(path), inner=5) * US
    config = load_config(path)
    ncells = len(config.expand())
    out["campaign.expand_us_per_cell"] = c.t(
        "campaign.expand", "campaign", config.expand, inner=5) * US / ncells
    rows = []
    for name in SHAPES["campaign_sweep"]["configs"]:
        cfg = load_config(INPUTS / "campaigns" / f"{name}.json")
        driver = cfg.driver.name
        if f"campaign.cell_ms.{driver}" in out:
            continue
        spec = cfg.expand()[0]
        out[f"campaign.cell_ms.{driver}"] = c.t(
            f"campaign.cell.{driver}", "campaign",
            lambda: rows.append((spec, run_one(cfg, spec))), reps=3) * MS
    scratch = OUT_DIR / "probe-campaign"

    def write():
        writer = ResultsWriter(scratch)
        for spec, metrics in rows:
            writer.add(spec.index, spec.seed, spec.cell, metrics)
        writer.finish(config.name, config.to_dict())

    out["campaign.write_us_per_row"] = c.t(
        "campaign.write", "campaign", write, reps=3) * US / len(rows)
    shutil.rmtree(scratch, ignore_errors=True)
    writer = run_campaign(config)
    out["campaign.error_rows"] = sum(r["status"] != "ok" for r in writer.rows)
    return out


def serve(c: _Ctx) -> dict:
    from repro.obs import parse_openmetrics
    from repro.perfmodel import clear_compile_cache, compile_cache_stats
    from repro.serve import (
        BatchPlanner,
        Executor,
        JobStore,
        ServeClient,
        ServeServer,
        WorkerPool,
        validate_request,
    )

    out = {}
    raw = {"op": "timeof", "model": c.em3d_source, "cluster": "paper",
           "params": c.em3d_params(8, "probe/serve")}
    out["serve.validate_us"] = c.t(
        "serve.validate", "serve", lambda: validate_request(dict(raw)),
        inner=20) * US
    req = validate_request(dict(raw))

    def miss():
        clear_compile_cache()
        Executor().execute(req)

    out["serve.execute_miss_ms"] = c.t("serve.execute_miss", "serve", miss,
                                       reps=3) * MS
    executor = Executor()
    executor.execute(req)
    hit = c.t("serve.execute_hit", "serve", lambda: executor.execute(req),
              inner=50)
    out["serve.execute_hit_us"] = hit * US

    store = JobStore()
    jobs = [store.submit(validate_request({**raw, "tenant": f"t{i % 8}"}))
            for i in range(64)]

    def plan():
        planner = BatchPlanner()
        for job in jobs:
            planner.add(job)
        planner.drain()

    out["serve.plan_us_per_job"] = c.t("serve.plan", "serve", plan,
                                       inner=5) * US / len(jobs)

    # Worker IPC: one spawned lane, a cached job, submit -> on_result.
    done = threading.Event()
    pool = WorkerPool(workers=1, on_result=lambda tid, outcomes: done.set())
    payload = {"kind": "batch", "requests": [req.to_dict()]}

    def roundtrip():
        done.clear()
        pool.submit("probe", req.world_digest, payload)
        if not done.wait(60.0):
            raise RuntimeError("worker lane did not answer")

    try:
        roundtrip()  # first call builds the lane's world and caches
        out["serve.ipc_roundtrip_ms"] = c.t("serve.ipc_roundtrip", "serve",
                                            roundtrip, inner=5) * MS
    finally:
        pool.stop()

    before = compile_cache_stats()
    server = ServeServer(workers=0).start_background()
    try:
        client = ServeClient(server.url, tenant="probe")
        client.submit(raw)
        healthz = c.t("serve.healthz_rtt", "serve", client.healthz, inner=10)
        job = c.t("serve.job_rtt_hit", "serve", lambda: client.submit(raw),
                  inner=10)
        clients = [ServeClient(server.url, tenant=f"probe-{i}")
                   for i in range(2)]
        closed_loop(2, lambda i: [clients[i].submit(raw) for _ in range(32)])
        health = client.healthz()
        fam = parse_openmetrics(client.metrics_text())
    finally:
        server.stop()
    after = compile_cache_stats()

    def total(name: str) -> float:
        return sum(v for _, _, v in fam.get(name, {}).get("samples", ()))

    hits, misses = total("serve_cache_hits"), total("serve_cache_misses")
    compiles = (after["hits"] - before["hits"]
                + after["misses"] - before["misses"])
    out.update({
        "serve.healthz_rtt_ms": healthz * MS,
        "serve.job_rtt_hit_ms": job * MS,
        "serve.queue_wait_ms": (job - healthz - hit) * MS,
        "serve.coalesce_ratio": (health["batcher"]["coalesced"]
                                 / health["batcher"]["jobs_in"]),
        "serve.cache_hit_ratio": hits / (hits + misses),
        "serve.rejected": health["jobs"]["rejected"],
        "perfmodel.compile_cache_hit_ratio":
            (after["hits"] - before["hits"]) / max(1, compiles),
    })
    return out


def obs(c: _Ctx) -> dict:
    from repro.mpi import run_mpi
    from repro.obs import EventBus, MetricsRegistry, render_openmetrics

    n, laps = 1024 // c.scale, 4
    sink = OUT_DIR / "probe-obs.jsonl"
    OUT_DIR.mkdir(exist_ok=True)
    registry = MetricsRegistry()

    def ring(**kw):
        run_mpi(ring_app, c.flat64, nprocs=n, args=_ring_args(laps),
                engine="events",
                timeout=600.0, **kw)

    def instrumented():
        bus = EventBus(capacity=4096, sink=str(sink))
        try:
            ring(metrics=registry, telemetry=bus)
        finally:
            bus.close()

    # Interleaved, so slow drift of the machine biases neither mode.
    plain, enabled = [], []
    for _ in range(c.reps):
        plain.append(timed(c.rec, "obs.ring_plain", "obs", ring, reps=1))
        enabled.append(timed(c.rec, "obs.ring_enabled", "obs", instrumented,
                             reps=1))
    sink.unlink(missing_ok=True)
    return {
        "obs.enabled_overhead_pct": (statistics.median(enabled)
                                     / statistics.median(plain) - 1) * 100,
        "obs.snapshot_us": c.t("obs.snapshot", "obs", registry.snapshot,
                               inner=20) * US,
        "obs.openmetrics_render_us": c.t(
            "obs.openmetrics_render", "obs",
            lambda: render_openmetrics(registry), inner=20) * US,
    }
