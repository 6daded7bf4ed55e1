"""The seven workloads: inputs from ``--seed``, rounds of timed ops, checks.

Each workload is a class with the same five methods:

``setup(seed, quick)``   build inputs/world/server and warm up (timed as
                         ``setup_s`` by the caller; ``repro`` is imported
                         here, so imports count as set-up)
``round(rec)``           run one round; returns ``(latencies_s, nops)``
``check()``              verify outputs kept from the rounds; returns the
                         number of failed ops
``digest()``             JSON-able simulated statistics (virtual times,
                         mappings) — identical across speed-only changes
``teardown()``           stop servers, join threads

Only public ``repro.*`` names are used, and every input file comes from
``inputs/`` — a change outside this directory cannot change a workload.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import threading
import zlib

from harness import INPUTS, OUT_DIR, SpanRecorder, pc

SHAPES = json.loads((INPUTS / "shapes.json").read_text())


def model_source(name: str) -> str:
    return (INPUTS / "models" / f"{name}.pmdl").read_text()


def sub_seed(seed: int, tag: str) -> int:
    """A stream seed derived from ``--seed`` and a stable tag."""
    import numpy as np

    return int(np.random.default_rng(
        [seed, zlib.crc32(tag.encode())]).integers(2 ** 31))


def sig(x: float | None) -> str | None:
    """Float to 9 significant digits: stable across summation orders."""
    return None if x is None else f"{x:.9g}"


# ----------------------------------------------------------------------
# model parameter builders shared by select_cold and serve_miss
# ----------------------------------------------------------------------

def bind_args(kind: str, spec: dict, seed: int) -> tuple[str, str, dict]:
    """(PMDL source name, algorithm, bind params by name) for a model."""
    import numpy as np

    rng = np.random.default_rng(seed)
    p = spec.get("p", 0)
    if kind == "em3d":
        from repro.apps.em3d import generate_problem

        prob = generate_problem(p=p, total_nodes=3000 * p, seed=seed,
                                boundary_fraction=0.3)
        return "em3d", "Em3d", {"p": p, "k": 100, "d": prob.d.tolist(),
                                "dep": prob.dep.tolist()}
    if kind == "jacobi":
        n = 240
        cuts = sorted(rng.choice(np.arange(8, n - 8), size=p - 1,
                                 replace=False).tolist())
        rows = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        return "jacobi", "Jacobi", {"p": p, "k": 100, "N": n, "rows": rows}
    if kind == "mm":
        from repro.apps.matmul import heterogeneous_distribution, speed_grid
        from repro.cluster import PAPER_SPEEDS

        speeds = [s * f for s, f in
                  zip(PAPER_SPEEDS, rng.uniform(0.8, 1.25, len(PAPER_SPEEDS)))]
        grid = speed_grid(speeds, spec["m"], host_machine=0)
        dist = heterogeneous_distribution(spec["n"], spec["l"], grid)
        return "mm", "ParallelAxB", {
            "m": dist.m, "r": spec["r"], "n": dist.n, "l": dist.l,
            "w": list(dist.w), "h": dist.h4()}
    volumes = rng.integers(5, 60, size=p).tolist()
    algorithm = {"ring": "Ring", "pipeline": "Pipeline"}[kind]
    return kind, algorithm, {"p": p, "v": volumes}


def closed_loop(nclients: int, work) -> list:
    """Run ``work(i)`` on ``nclients`` threads; returns their results."""
    out: list = [None] * nclients

    def runner(i: int) -> None:
        out[i] = work(i)

    # daemon: a run told to stop must not wait for the clients' rounds
    threads = [threading.Thread(target=runner, args=(i,), name=f"client-{i}",
                                daemon=True)
               for i in range(nclients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return out


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------

class Figures:
    name = "figures"
    op = "figure point (one run_*_mpi / run_*_hmpi call)"
    tail_pct = 90

    def setup(self, seed: int, quick: bool) -> None:
        from repro.apps.em3d import generate_problem, run_em3d_hmpi, run_em3d_mpi
        from repro.apps.matmul import (
            candidate_block_sizes,
            run_matmul_hmpi,
            run_matmul_mpi,
        )
        from repro.cluster import paper_network
        from repro.core import GreedyMapper

        sh = SHAPES["figures"]
        f9, f10, f11 = sh["fig09"], sh["fig10"], sh["fig11"]
        cut = 1 if quick else None
        self.points: list[dict] = []

        def point(group, role, span, fn, exact):
            self.points.append({"name": f"{group}/{role}", "group": group,
                                "role": role, "span": span, "fn": fn,
                                "exact": exact})

        for total in f9["node_counts"][:cut]:
            prob = generate_problem(p=f9["p"], total_nodes=total,
                                    seed=sub_seed(seed, f"fig09/{total}"))
            kw = {"niter": f9["niter"], "k": f9["k"]}
            group = f"fig09/{total}"
            point(group, "mpi", "apps.em3d.mpi", lambda prob=prob, kw=kw:
                  run_em3d_mpi(paper_network(), prob, **kw), True)
            for ppm in (1, 2):
                point(group, f"hmpi{ppm}", "apps.em3d.hmpi",
                      lambda prob=prob, kw=kw, ppm=ppm: run_em3d_hmpi(
                          paper_network(), prob, procs_per_machine=ppm, **kw),
                      True)
        s10 = sub_seed(seed, "fig10")
        kw10 = {"n": f10["n"], "r": f10["r"], "m": f10["m"], "seed": s10}
        point("fig10", "mpi", "apps.matmul.mpi",
              lambda: run_matmul_mpi(paper_network(), **kw10), False)
        for l in candidate_block_sizes(f10["n"], f10["m"])[:2 if quick else None]:
            point("fig10", f"hmpi-l{l}", "apps.matmul.hmpi",
                  lambda l=l: run_matmul_hmpi(paper_network(), l=l,
                                              mapper=GreedyMapper(), **kw10),
                  False)
        s11 = sub_seed(seed, "fig11")
        for n in f11["sizes"][:cut]:
            kw11 = {"n": n, "r": f11["r"], "m": f11["m"], "seed": s11}
            point(f"fig11/{n}", "mpi", "apps.matmul.mpi", lambda kw11=kw11:
                  run_matmul_mpi(paper_network(), **kw11), False)
            point(f"fig11/{n}", "hmpi", "apps.matmul.hmpi", lambda kw11=kw11:
                  run_matmul_hmpi(paper_network(), l=f11["l"],
                                  mapper=GreedyMapper(), **kw11), False)
        self.first: list | None = None
        self.mismatches = 0
        self.info: dict = {}
        # Warm-up: the first point of each kind (lazy model compiles,
        # mapper registry, first-use imports).
        seen = set()
        for pt in self.points:
            if pt["span"] not in seen:
                seen.add(pt["span"])
                pt["fn"]()

    @staticmethod
    def _summary(r) -> tuple:
        return (r.algorithm_time, r.checksum,
                getattr(r, "predicted_time", None),
                tuple(r.group_world_ranks))

    def round(self, rec: SpanRecorder, op0: int = 0):
        lats, results = [], []
        for i, pt in enumerate(self.points):
            with rec.span(pt["span"], "apps", op=op0 + i):
                t0 = pc()
                r = pt["fn"]()
                lats.append(pc() - t0)
            results.append(self._summary(r))
        if self.first is None:
            self.first = results
        else:
            self.mismatches += sum(a != b for a, b in zip(results, self.first))
        return lats, len(lats)

    def check(self) -> int:
        import math

        failed = self.mismatches
        by_group: dict[str, dict] = {}
        for pt, res in zip(self.points, self.first):
            by_group.setdefault(pt["group"], {})[pt["role"]] = (pt, res)
        err, speedups = 0.0, {}
        for group, roles in by_group.items():
            _, (t_mpi, sum_mpi, _, _) = roles["mpi"]
            for role, (pt, (t, checksum, pred, _)) in roles.items():
                if role == "mpi":
                    continue
                same = (checksum == sum_mpi if pt["exact"] else
                        math.isclose(checksum, sum_mpi, rel_tol=1e-9))
                rel = abs(pred - t) / t
                err = max(err, rel)
                if not same or rel > 0.10:
                    failed += 1
                speedups[f"{group}/{role}"] = t_mpi / t
        self.info = {
            "timeof_pred_err_pct": err * 100.0,
            "hmpi_speedup_em3d_2_per_machine": _mean(
                v for k, v in speedups.items() if k.endswith("hmpi2")),
            "hmpi_speedup_matmul_fig11": _mean(
                v for k, v in speedups.items() if k.startswith("fig11")),
        }
        return failed

    def digest(self):
        return [[pt["name"], sig(t), sig(pred), list(ranks)]
                for pt, (t, _, pred, ranks) in zip(self.points, self.first)]

    def teardown(self) -> None:
        pass


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# engine workloads
# ----------------------------------------------------------------------

def ring_app(env, tokens, sizes):
    """Token ring: one message circulates, so every receive blocks.

    Rank 0 stamps the host clock after each lap; the marks are the
    benchmark's per-op latencies (one lap = 2 * ranks message events).
    """
    comm = env.comm_world
    nxt = (env.rank + 1) % env.size
    prv = (env.rank - 1) % env.size
    if env.rank == 0:
        marks, got = [pc()], []
        for token, nbytes in zip(tokens, sizes):
            comm.send(token, nxt, nbytes=nbytes)
            got.append(comm.recv(prv))
            marks.append(pc())
        return marks, got
    for nbytes in sizes:
        comm.send(comm.recv(prv), nxt, nbytes=nbytes)
    return None


def collectives_app(env, addends, payload):
    """Rounds of allreduce + bcast + barrier; rank 0 stamps each round."""
    from repro.mpi import SUM

    comm = env.comm_world
    marks = [pc()] if env.rank == 0 else None
    sums, ok = [], True
    for a in addends:
        sums.append(comm.allreduce(env.rank * a, SUM))
        ok &= comm.bcast(payload if env.rank == 0 else None, root=0) == payload
        comm.barrier()
        if marks is not None:
            marks.append(pc())
    return marks, sums, ok


class _EngineWorkload:
    tail_pct = 90

    def _setup_common(self, sh: dict, ranks: int) -> None:
        from repro.cluster import uniform_network
        from repro.mpi import run_mpi

        self.ranks = ranks
        self.cluster = uniform_network([100.0] * sh["machines"])
        self.run_mpi = run_mpi
        self.makespans: list[float] = []
        self.bad = 0

    def _run(self, rec: SpanRecorder, op0: int, lap_name: str, args: tuple):
        t0 = pc()
        res = self.run_mpi(self.app, self.cluster, nprocs=self.ranks,
                           args=args, engine="events", timeout=600.0)
        t1 = pc()
        marks = res.results[0][0]
        if rec.enabled:
            run = rec.add("mpi.run_mpi", "mpi", t0, t1, op=op0)
            for a, b in zip(marks, marks[1:]):
                rec.add(lap_name, "mpi", a, b, op=op0, parent=run)
        if res.failed or any(e is not None for e in res.exceptions):
            self.bad += 1
        self.makespans.append(res.makespan)
        return res, [b - a for a, b in zip(marks, marks[1:])]

    def check(self) -> int:
        drift = sum(m != self.makespans[0] for m in self.makespans)
        return self.bad + drift

    def digest(self):
        return {"ranks": self.ranks, "makespan": sig(self.makespans[0])}

    def teardown(self) -> None:
        pass


class EngineRing(_EngineWorkload):
    name = "engine_ring"
    op = "ring lap (2 * ranks message events); throughput counts events"
    app = staticmethod(ring_app)

    def setup(self, seed: int, quick: bool) -> None:
        import numpy as np

        sh = SHAPES["engine_ring"]
        self._setup_common(sh, 128 if quick else sh["ranks"])
        laps = 2 if quick else sh["laps"]
        rng = np.random.default_rng(sub_seed(seed, "ring"))
        self.tokens = rng.integers(0, 1 << 30, size=laps).tolist()
        self.sizes = rng.integers(32, 129, size=laps).tolist()
        self.run_mpi(ring_app, self.cluster, nprocs=self.ranks,
                     args=(self.tokens[:1], self.sizes[:1]), engine="events")

    def round(self, rec: SpanRecorder, op0: int = 0):
        res, lats = self._run(rec, op0, "mpi.ring_lap",
                              (self.tokens, self.sizes))
        if res.results[0][1] != self.tokens:
            self.bad += 1
        return lats, self.ranks * len(self.tokens) * 2


class EngineCollectives(_EngineWorkload):
    name = "engine_collectives"
    op = ("collective round (allreduce + 4 KiB bcast + barrier on every "
          "rank); throughput counts rank-level calls")
    app = staticmethod(collectives_app)

    def setup(self, seed: int, quick: bool) -> None:
        import numpy as np

        sh = SHAPES["engine_collectives"]
        self._setup_common(sh, 32 if quick else sh["ranks"])
        rounds = 2 if quick else sh["rounds"]
        rng = np.random.default_rng(sub_seed(seed, "collectives"))
        self.addends = rng.integers(1, 1000, size=rounds).tolist()
        self.payload = rng.bytes(sh["bcast_bytes"])
        self.run_mpi(collectives_app, self.cluster, nprocs=self.ranks,
                     args=(self.addends[:1], self.payload), engine="events")

    def round(self, rec: SpanRecorder, op0: int = 0):
        res, lats = self._run(rec, op0, "mpi.collective_round",
                              (self.addends, self.payload))
        tri = self.ranks * (self.ranks - 1) // 2
        want = [tri * a for a in self.addends]
        if any(r[1] != want or not r[2] for r in res.results):
            self.bad += 1
        return lats, self.ranks * len(self.addends) * 3


# ----------------------------------------------------------------------
# select_cold
# ----------------------------------------------------------------------

class SelectCold:
    name = "select_cold"
    op = "cold selection (clear cache, compile, bind, mapper.select)"
    tail_pct = 99

    def setup(self, seed: int, quick: bool) -> None:
        import numpy as np
        from repro.apps.matmul import make_get_processor
        from repro.campaign import build_cluster
        from repro.core import NetworkModel, resolve_mapper
        from repro.perfmodel import clear_compile_cache, compile_source

        self.clear, self.compile = clear_compile_cache, compile_source
        self.resolve = resolve_mapper
        sh = SHAPES["select_cold"]
        self.worlds = {}
        for world in ("paper", "two_site"):
            cluster = build_cluster(world)
            self.worlds[world] = NetworkModel(cluster,
                                              list(range(cluster.size)))
        externals = {"mm": {"GetProcessor": make_get_processor()}}
        self.models = {}
        for key, spec in sh["models"].items():
            src, alg, params = bind_args(spec["kind"], spec,
                                         sub_seed(seed, f"select/{key}"))
            self.models[key] = (model_source(src), externals.get(src), alg,
                                params)
        deck = [tuple(e) for e in sh["deck"]]
        order = np.random.default_rng(sub_seed(seed, "deck")).permutation(
            len(deck))
        self.deck = [deck[i] for i in order][:8 if quick else None]
        self.first: list | None = None
        self.mismatches = 0
        for mapper in ("greedy", "default", "refine", "anneal", "exhaustive"):
            self._op(SpanRecorder(), 0, ("ring6", "paper", mapper))

    def _op(self, rec: SpanRecorder, op: int, entry: tuple):
        key, world, mapper = entry
        source, externals, algorithm, params = self.models[key]
        netmodel = self.worlds[world]
        with rec.span("select_cold.op", "core", op=op):
            t0 = pc()
            with rec.span("perfmodel.compile_source", "perfmodel"):
                self.clear()
                model = self.compile(source, externals)[algorithm]
            with rec.span("perfmodel.bind", "perfmodel"):
                bound = model.bind(**params)
            with rec.span("core.mapper.select", "core"):
                mapping = self.resolve(mapper).select(
                    bound, netmodel, list(range(netmodel.nprocs)),
                    {bound.parent_index(): 0})
            return pc() - t0, bound, mapping

    def round(self, rec: SpanRecorder, op0: int = 0):
        lats, results = [], []
        for i, entry in enumerate(self.deck):
            lat, bound, mapping = self._op(rec, op0 + i, entry)
            lats.append(lat)
            results.append((bound, mapping))
        if self.first is None:
            self.first = results
        else:
            self.mismatches += sum(
                a[1] != b[1] for a, b in zip(results, self.first))
        return lats, len(lats)

    def check(self) -> int:
        import math
        from repro.core import estimate_breakdown, estimate_time

        failed = self.mismatches
        for (_, world, _), (bound, mapping) in zip(self.deck, self.first):
            netmodel = self.worlds[world]
            oracle = estimate_breakdown(bound, netmodel,
                                        mapping.machines)["makespan"]
            if (mapping.time != estimate_time(bound, netmodel,
                                              mapping.machines)
                    or not math.isclose(mapping.time, oracle, rel_tol=1e-9)):
                failed += 1
        return failed

    def digest(self):
        rows = [[*entry, list(m.processes), sig(m.time)]
                for entry, (_, m) in zip(self.deck, self.first)]
        return sorted(rows, key=json.dumps)

    def teardown(self) -> None:
        pass


# ----------------------------------------------------------------------
# serve workloads
# ----------------------------------------------------------------------

def _strip(result: dict) -> dict:
    return {k: v for k, v in result.items() if k != "cache"}


class _ServeWorkload:
    tail_pct = 99
    clients_n = 2

    def _start(self, workers: int) -> None:
        from repro.serve import ServeClient, ServeError, ServeServer

        self.ServeError = ServeError
        self.server = ServeServer(workers=workers).start_background()
        self.clients = [ServeClient(self.server.url, tenant=f"client-{i}")
                        for i in range(self.clients_n)]
        self.sample: list[tuple[dict, dict]] = []
        self.bad = 0

    def _submit(self, rec: SpanRecorder, op: int, client, raw: dict):
        """One closed-loop request; returns (latency, doc or None)."""
        with rec.span("serve.request", "serve", op=op):
            t0 = pc()
            try:
                doc = client.submit(raw)
            except self.ServeError:
                doc = None
            return pc() - t0, doc

    def teardown(self) -> None:
        self.server.stop()


class ServeWarm(_ServeWorkload):
    name = "serve_warm"
    op = "identical-shape EM3D p=8 timeof request, 2 closed-loop clients"

    def setup(self, seed: int, quick: bool) -> None:
        sh = SHAPES["serve_warm"]
        spec = {"p": sh["p"]}
        _, _, params = bind_args("em3d", spec, sub_seed(seed, "serve_warm"))
        self.raw = {"op": "timeof", "model": model_source("em3d"),
                    "params": params, "cluster": sh["world"]}
        self.per_client = 10 if quick else sh["per_client_per_round"]
        self._start(workers=0)
        self.times: list[float] = []
        self.clients[0].submit(self.raw)

    def round(self, rec: SpanRecorder, op0: int = 0):
        def work(i: int):
            lats, docs = [], []
            for j in range(self.per_client):
                lat, doc = self._submit(rec, op0 + i * self.per_client + j,
                                        self.clients[i], self.raw)
                lats.append(lat)
                docs.append(doc)
            return lats, docs

        parts = closed_loop(self.clients_n, work)
        for _, docs in parts:
            for doc in docs:
                if doc is None or doc.get("status") != "done":
                    self.bad += 1
                    continue
                self.times.append(doc["result"]["predicted_time"])
                if len(self.sample) < 32:
                    self.sample.append((self.raw, doc["result"]))
        lats = [x for part, _ in parts for x in part]
        return lats, len(lats)

    def check(self) -> int:
        from repro.serve import Executor, validate_request

        direct = Executor().execute(validate_request(dict(self.raw)))
        self.direct = direct
        failed = self.bad
        failed += sum(t != direct["predicted_time"] for t in self.times)
        failed += sum(_strip(res) != _strip(direct) for _, res in self.sample)
        return failed

    def digest(self):
        return _strip(self.direct) | {
            "predicted_time": sig(self.direct["predicted_time"]),
            "mapping": self.direct["mapping"] | {
                "time": sig(self.direct["mapping"]["time"])}}


class ServeMiss(_ServeWorkload):
    name = "serve_miss"
    op = ("all-miss request (salted model, 70% timeof / 20% group_create / "
          "10% check), 2 closed-loop clients, 1 worker process")

    def setup(self, seed: int, quick: bool) -> None:
        import numpy as np
        from repro.campaign import build_cluster

        sh = SHAPES["serve_miss"]
        self.sh, self.seed = sh, seed
        self.per_client = 6 if quick else sh["per_client_per_round"]
        self.pools: dict[str, list] = {}
        for key, spec in sh["models"].items():
            self.pools[key] = [
                bind_args(spec["kind"], spec, sub_seed(seed, f"miss/{key}/{j}"))
                for j in range(8)]
        self.sources = {src: model_source(src) for src in
                        {pool[0][0] for pool in self.pools.values()}}
        self.speeds, self.decks, self.rngs = [], [], []
        for c, world in enumerate(sh["worlds"]):
            rng = np.random.default_rng(sub_seed(seed, f"miss/client/{c}"))
            base = np.array([m.speed for m in build_cluster(world).machines])
            self.speeds.append([
                np.round(base * rng.uniform(0.8, 1.25, len(base)), 1).tolist()
                for _ in range(8)])
            self.decks.append([sh["deck"][i]
                               for i in rng.permutation(len(sh["deck"]))])
            self.rngs.append(rng)
        self.sent = [0] * self.clients_n
        self._start(workers=sh["workers"])
        for c in range(self.clients_n):
            self.clients[c].submit(self._request(c, -1))

    def _request(self, c: int, k: int) -> dict:
        """Request ``k`` of client ``c``: unique model text, so it misses
        the compile cache, the bind memo and the selection cache."""
        sh = self.sh
        op, key = self.decks[c][k % len(self.decks[c])]
        pool = self.pools[key]
        src, algorithm, params = pool[int(self.rngs[c].integers(len(pool)))]
        model = f"// salt {self.seed}.{c}.{k}\n{self.sources[src]}"
        if op == "check":
            return {"op": "check", "model": model, "net": True}
        raw = {"op": op, "model": model, "params": params,
               "cluster": sh["worlds"][c]}
        if k >= 0 and k % sh["speeds_every"] == sh["speeds_offset"]:
            pool_s = self.speeds[c]
            raw["speeds"] = pool_s[(k // sh["speeds_every"]) % len(pool_s)]
        return raw

    def round(self, rec: SpanRecorder, op0: int = 0):
        def work(c: int):
            lats, sent = [], []
            for j in range(self.per_client):
                k = self.sent[c]
                self.sent[c] += 1
                raw = self._request(c, k)
                lat, doc = self._submit(rec, op0 + c * self.per_client + j,
                                        self.clients[c], raw)
                lats.append(lat)
                sent.append((k, raw, doc))
            return lats, sent

        parts = closed_loop(self.clients_n, work)
        for c, (_, sent) in enumerate(parts):
            for k, raw, doc in sent:
                result = doc.get("result") if doc else None
                if (doc is None or doc.get("status") != "done"
                        or result.get("cache", "miss") != "miss"):
                    self.bad += 1
                elif k < 16:
                    self.sample.append((c, k, raw, result))
        lats = [x for part, _ in parts for x in part]
        return lats, len(lats)

    def check(self) -> int:
        from repro.serve import Executor, validate_request

        failed = self.bad
        self.direct = []
        for c in range(self.clients_n):
            # In request order against a fresh executor: speed updates
            # are state, so a world's results depend on its history.
            executor = Executor()
            mine = sorted((s for s in self.sample if s[0] == c),
                          key=lambda s: s[1])
            for _, k, raw, served in mine:
                direct = executor.execute(validate_request(
                    {"tenant": f"client-{c}", **raw}))
                self.direct.append((c, k, direct))
                failed += _strip(served) != _strip(direct)
        return failed

    def digest(self):
        rows = []
        for c, k, direct in self.direct:
            mapping = direct.get("mapping")
            rows.append([c, k, direct["op"],
                         mapping and [mapping["processes"],
                                      sig(mapping["time"])],
                         direct.get("exit_code")])
        return rows


# ----------------------------------------------------------------------
# campaign_sweep
# ----------------------------------------------------------------------

class CampaignSweep:
    name = "campaign_sweep"
    op = "campaign cell (one run_one through run_campaign, results written)"
    tail_pct = 95

    def setup(self, seed: int, quick: bool) -> None:
        from repro.campaign import CampaignConfig, run_campaign

        self.run_campaign = run_campaign
        names = SHAPES["campaign_sweep"]["configs"]
        self.configs = []
        for name in names[:2 if quick else None]:
            raw = json.loads((INPUTS / "campaigns" / f"{name}.json").read_text())
            raw["seed"] = sub_seed(seed, f"campaign/{name}")
            if "problem_seed" in raw["fixed"]:
                raw["fixed"]["problem_seed"] = sub_seed(seed, f"problem/{name}")
            self.configs.append(CampaignConfig(raw))
        self.out = OUT_DIR / "campaign_sweep"
        self.jsonl: list[str] | None = None
        self.mismatches = 0
        self.error_rows = 0
        self.round(SpanRecorder())

    def round(self, rec: SpanRecorder, op0: int = 0):
        lats, texts, op = [], [], op0
        for config in self.configs:
            marks = [pc()]
            with rec.span("campaign.run_campaign", "campaign", op=op):
                writer = self.run_campaign(
                    config, out_dir=self.out / config.name,
                    progress=lambda spec, row: marks.append(pc()))
            if rec.enabled:
                parent = len(rec.spans) - 1
                for a, b in zip(marks, marks[1:]):
                    rec.add("campaign.cell", "campaign", a, b, op=op,
                            parent=parent)
                    op += 1
            lats += [b - a for a, b in zip(marks, marks[1:])]
            texts.append(writer.jsonl())
            self.error_rows += sum(r["status"] != "ok" for r in writer.rows)
        if self.jsonl is None:
            self.jsonl = texts
        else:
            self.mismatches += sum(a != b for a, b in zip(texts, self.jsonl))
        return lats, len(lats)

    def check(self) -> int:
        on_disk = sum(
            (self.out / c.name / "results.jsonl").read_text() != text
            for c, text in zip(self.configs, self.jsonl))
        return self.mismatches + self.error_rows + on_disk

    def digest(self):
        def rounded(x):
            if isinstance(x, float):
                return sig(x)
            if isinstance(x, dict):
                return {k: rounded(v) for k, v in x.items()}
            if isinstance(x, list):
                return [rounded(v) for v in x]
            return x

        return [[rounded(json.loads(line)) for line in text.splitlines()]
                for text in self.jsonl]

    def teardown(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


WORKLOADS = {w.name: w for w in (
    Figures, EngineRing, EngineCollectives, SelectCold, ServeWarm,
    ServeMiss, CampaignSweep)}


def digest_of(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
