"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``compile FILE``
    Compile a PMDL model file (static analysis included), print the
    canonical source, and — when ``--bind`` supplies parameter values
    (the rest take their probe values) — check that the scheme performs
    exactly the declared volumes (PM082); analyzer errors and coverage
    findings exit nonzero.
``check FILE [FILE ...]``
    Static analysis only: report coded ``PM0xx`` diagnostics without
    binding parameters.  ``--strict`` fails on warnings, ``--json`` emits
    machine-readable reports, ``--apps`` also checks the built-in
    application models.
``cluster``
    Print a preset cluster configuration as JSON (edit it, feed it back to
    experiments).
``topology show`` / ``topology check``
    Render a cluster's hierarchy tree (``show``) or run the topology
    validation diagnostics (``check``; exits nonzero on errors).  Both
    accept ``--preset`` (a topology preset name) or ``--file`` (a cluster
    JSON produced by ``repro cluster``); ``check`` with neither validates
    every topology preset.
``trace``
    Run an instrumented scenario (fault-tolerant Jacobi by default) and
    write its Chrome-trace JSON — load it in Perfetto or
    ``chrome://tracing`` for per-rank lanes plus nested runtime spans.
``stats``
    Run the same scenarios and print the metrics snapshot, selection-
    cache statistics, and the Timeof prediction-accuracy table.
``campaign run/check/list``
    Declarative scenario campaigns (see ``docs/CAMPAIGNS.md``): ``run``
    executes every cell of a campaign JSON and writes ``results.jsonl``
    + ``summary.json``; ``check`` compares results against a committed
    regression baseline (nonzero on drift); ``list`` shows the expanded
    runs of a config, or the driver catalogue without one.  ``run
    --live`` streams done/total + ETA status lines and ``--telemetry``
    appends the event stream as JSONL — both side channels, the results
    files stay byte-identical.  The paper's Figures 9–11 are campaigns:
    ``campaign run examples/campaigns/fig09.json`` (``fig10``, ``fig11``).
``monitor CONFIG``
    Run a campaign behind a live HTTP endpoint (``/metrics`` in
    OpenMetrics text, ``/snapshot``, ``/events``, ``/healthz``); see
    ``docs/OBSERVABILITY.md``.  ``--hold`` keeps serving after the last
    cell so scrapers can collect the final state.

Option errors (unknown campaign axis, bad registry string, malformed
config) exit with code 2 and a one-line message — never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from .apps.matmul import run_matmul_hmpi
from .cluster import multiprotocol_network, paper_network
from .cluster.serialize import cluster_to_json
from .core import GreedyMapper
from .util.tables import Table

__all__ = ["main"]


def _parse_fail(pairs: list[str]) -> dict[str, float]:
    schedule = {}
    for pair in pairs:
        name, sep, at = pair.partition("=")
        if not sep:
            raise SystemExit(f"--fail expects MACHINE=VTIME, got {pair!r}")
        try:
            schedule[name] = float(at)
        except ValueError:
            raise SystemExit(f"--fail {name}: {at!r} is not a number")
    return schedule


def _run_observed(args: argparse.Namespace):
    """Run the chosen instrumented scenario; return its Observability."""
    from .obs import Observability

    obs = Observability()
    if args.app == "jacobi":
        from .apps.jacobi import run_jacobi_ft
        from .cluster import FaultSchedule, inject_faults, uniform_network

        cluster = uniform_network([100.0] * args.machines)
        if args.fail:
            inject_faults(cluster, FaultSchedule(_parse_fail(args.fail)))
        result = run_jacobi_ft(cluster, n=args.n, p=args.p, niter=args.niter,
                               k=50, seed=args.seed, obs=obs,
                               engine=args.engine)
        if result.error is not None:
            raise SystemExit(f"jacobi run failed: {result.error}")
        outcome = (f"jacobi n={args.n} p={args.p} niter={args.niter}: "
                   f"{result.repairs} repair(s), "
                   f"{result.checkpoint_saves} checkpoint save(s), "
                   f"makespan {result.makespan:.3f}s")
    else:
        result = run_matmul_hmpi(paper_network(), n=args.n, r=9, m=3,
                                 seed=args.seed, mapper=GreedyMapper(),
                                 obs=obs, engine=args.engine)
        outcome = (f"matmul n={args.n} l={result.block_size_l}: "
                   f"algorithm {result.algorithm_time:.3f}s, "
                   f"makespan {result.makespan:.3f}s")
    return obs, outcome


def _engine_flag(sub) -> None:
    from .mpi.scheduler import ENGINE_BACKENDS

    sub.add_argument("--engine", choices=list(ENGINE_BACKENDS), default=None,
                     help="scheduling backend (default: events)")


def _scenario_flags(sub) -> None:
    sub.add_argument("--app", choices=["jacobi", "matmul"], default="jacobi")
    _engine_flag(sub)
    sub.add_argument("--n", type=int, default=30,
                     help="problem size (grid rows / blocks)")
    sub.add_argument("--p", type=int, default=4,
                     help="jacobi group size")
    sub.add_argument("--niter", type=int, default=6)
    sub.add_argument("--machines", type=int, default=5,
                     help="jacobi cluster size")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--fail", nargs="*", metavar="MACHINE=VTIME",
                     default=["m02=0.05"],
                     help="jacobi fault schedule (pass bare --fail for a "
                          "fault-free run)")


def _cmd_trace(args: argparse.Namespace) -> int:
    obs, outcome = _run_observed(args)
    print(outcome)
    obs.write_chrome_trace(args.out, metadata={"app": args.app})
    doc = obs.chrome_trace()
    print(f"wrote {args.out}: {len(doc['traceEvents'])} events "
          f"({obs.snapshot()['spans']} runtime spans) — open in Perfetto "
          f"or chrome://tracing")
    if args.metrics:
        with open(args.metrics, "w") as fh:
            fh.write(obs.metrics.to_json())
            fh.write("\n")
        print(f"wrote {args.metrics}: metrics snapshot")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    obs, outcome = _run_observed(args)
    snap = obs.snapshot()
    if args.json:
        print(json.dumps(snap, indent=2))
        return 0
    print(outcome)
    print()
    table = Table("metric", "labels", "type", "value",
                  title="Metrics snapshot")
    for series in snap["metrics"]:
        labels = ",".join(f"{k}={v}" for k, v in series["labels"].items())
        if series["type"] == "histogram":
            value = "n=0"
            if series["count"]:
                value = (f"n={series['count']} p50={series['p50']:.2e} "
                         f"p95={series['p95']:.2e}")
        else:
            value = f"{series['value']:g}"
        table.add(series["name"], labels or "-", series["type"], value)
    print(table.render())
    print()
    print(obs.accuracy.render())
    return 0


def _parse_bindings(pairs: list[str]) -> dict:
    bindings = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            raise SystemExit(f"--bind expects NAME=VALUE, got {pair!r}")
        try:
            bindings[name] = json.loads(value)
        except json.JSONDecodeError:
            raise SystemExit(f"--bind {name}: {value!r} is not valid JSON")
    return bindings


def _bindings_per_model(models: dict, bindings: dict, target: str) -> dict:
    """Split ``--bind`` values among ``models`` by parameter name.

    A name that no algorithm in ``target`` declares is a usage error,
    not a value to drop silently.
    """
    unknown = set(bindings).difference(
        *(model.param_names for model in models.values()))
    if unknown:
        from .util.errors import OptionError

        raise OptionError(
            f"--bind {', '.join(sorted(unknown))}: no algorithm in "
            f"{target} has a parameter of that name")
    return {name: {p: v for p, v in bindings.items() if p in model.param_names}
            for name, model in models.items()}


def _cmd_compile(args: argparse.Namespace) -> int:
    from .perfmodel import compile_source, parse, stub_externals
    from .perfmodel.netcheck import check_coverage, unroll
    from .perfmodel.printer import format_unit
    from .util.errors import PMDLError

    source = open(args.file).read()
    try:
        models = compile_source(source, externals=stub_externals(source))
    except PMDLError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"compiled {len(models)} algorithm(s): {', '.join(models)}")
    for name, model in models.items():
        for diag in model.diagnostics:
            print(f"{args.file}: {name}: {diag.render()}")
    print()
    print(format_unit(parse(source)))

    if not args.bind:
        return 0
    wanted = _bindings_per_model(models, _parse_bindings(args.bind), args.file)
    exit_code = 0
    for name, model in models.items():
        try:
            # Unbound parameters take their probe values, as in `repro net`.
            bound, net = unroll(model, wanted[name])
        except PMDLError as exc:
            print(f"error binding {name}: {exc}", file=sys.stderr)
            return 1
        diags = check_coverage(net, bound)
        print(f"{name}: {len(diags)} coverage finding(s)")
        for diag in diags:
            print(f"  {diag.render()}")
        if diags:
            exit_code = 1
    return exit_code


def _check_targets(args: argparse.Namespace) -> list[tuple[str, str, dict | None]]:
    """(name, source, externals) triples for ``check``/``net`` targets.

    The built-in app targets carry their real external functions so the
    net checks can unroll their schemes (matmul's ``GetProcessor``).
    """
    targets: list[tuple[str, str, dict | None]] = []
    for path in args.files:
        targets.append((path, open(path).read(), None))
    if args.apps:
        from .apps.em3d.model import EM3D_MODEL_SOURCE
        from .apps.jacobi.model import JACOBI_MODEL_SOURCE
        from .apps.matmul.model import MM_MODEL_SOURCE, make_get_processor
        targets += [("<app:em3d>", EM3D_MODEL_SOURCE, None),
                    ("<app:matmul>", MM_MODEL_SOURCE,
                     {"GetProcessor": make_get_processor()}),
                    ("<app:jacobi>", JACOBI_MODEL_SOURCE, None)]
    return targets


def _net_dots(targets: list[tuple[str, str, dict | None]]) -> str:
    """Concatenated DOT digraphs of every target's unrolled net.

    Targets that cannot be unrolled (parse errors, unbound externals,
    failing probe binding) contribute a comment instead of a graph —
    mirroring the PM084 skip semantics of the checks themselves.
    """
    from .perfmodel import compile_source
    from .perfmodel.netcheck import unroll
    from .util.errors import PMDLError

    chunks: list[str] = []
    for name, source, externals in targets:
        try:
            models = compile_source(source, externals=externals, analyze=False)
            for mname, model in models.items():
                _, net = unroll(model)
                chunks.append(f"// {name}: {mname}")
                chunks.append(net.to_dot(title=mname))
        except PMDLError as exc:
            chunks.append(f"// {name}: net unavailable: {exc}")
    return "\n".join(chunks) + "\n"


def _cmd_check(args: argparse.Namespace) -> int:
    from .perfmodel import check_source

    targets = _check_targets(args)
    if not targets:
        print("nothing to check: pass model files and/or --apps",
              file=sys.stderr)
        return 2

    net = args.net or args.net_dot is not None
    reports = [
        check_source(source, target=name, net=net, externals=externals)
        for name, source, externals in targets
    ]
    # One exit computation shared by both output paths: warnings-only
    # stays 0, --strict promotes warnings — identically for JSON and text.
    exit_code = max(r.exit_code(strict=args.strict) for r in reports)
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for report in reports:
            print(report.render())
    if args.net_dot is not None:
        with open(args.net_dot, "w") as fh:
            fh.write(_net_dots(targets))
    return exit_code


def _cmd_net(args: argparse.Namespace) -> int:
    from .perfmodel import compile_source
    from .perfmodel.netcheck import check_net, unroll
    from .util.errors import PMDLError

    args.files = [args.file] if args.file else []
    args.apps = args.app is not None
    targets = _check_targets(args)
    if args.app is not None:
        targets = [t for t in targets if t[0] == f"<app:{args.app}>"]
    if not targets:
        print("nothing to unroll: pass FILE or --app", file=sys.stderr)
        return 2

    bindings = _parse_bindings(args.bind) if args.bind else {}
    exit_code = 0
    dot_chunks: list[str] = []
    traced = False
    for name, source, externals in targets:
        try:
            models = compile_source(source, externals=externals, analyze=False)
        except PMDLError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        wanted = _bindings_per_model(models, bindings, name)
        for mname, model in models.items():
            try:
                # User bindings override the probe defaults per parameter,
                # so `--bind p=6` works without spelling out every value.
                bound, net = unroll(model, wanted[mname])
            except PMDLError as exc:
                print(f"error binding {mname}: {exc}", file=sys.stderr)
                return 1
            print(f"{mname}: {net.summary()}")
            for diag in check_net(bound, model.algorithm):
                print(f"  {diag.render()}")
                if diag.severity.name == "ERROR":
                    exit_code = 1
            if args.dot is not None:
                dot_chunks.append(f"// {name}: {mname}")
                dot_chunks.append(net.to_dot(title=mname))
            if args.trace is not None and not traced:
                from .core.netmodel import NetworkModel
                from .obs.chrometrace import write_chrome_trace
                from .obs.netexport import net_chrome_trace

                cluster = paper_network()
                netmodel = NetworkModel(cluster, list(range(cluster.size)))
                machines = [i % cluster.size for i in range(bound.nproc)]
                doc = net_chrome_trace(bound, netmodel, machines, net=net)
                write_chrome_trace(args.trace, doc)
                print(f"{mname}: predicted schedule written to {args.trace} "
                      f"(machines {machines})")
                traced = True
    if args.dot is not None:
        with open(args.dot, "w") as fh:
            fh.write("\n".join(dot_chunks) + "\n")
        print(f"net DOT written to {args.dot}")
    return exit_code


def _cmd_cluster(args: argparse.Namespace) -> int:
    from .cluster import TOPOLOGY_PRESETS

    presets = {
        "paper": paper_network,
        "multiprotocol": multiprotocol_network,
        **TOPOLOGY_PRESETS,
    }
    print(cluster_to_json(presets[args.preset]()))
    return 0


def _topology_targets(args: argparse.Namespace) -> list[tuple[str, "object"]]:
    """(name, cluster) pairs selected by --preset/--file flags."""
    from .cluster import TOPOLOGY_PRESETS
    from .cluster.serialize import cluster_from_json
    from .util.errors import ClusterError

    targets: list[tuple[str, object]] = []
    if args.preset:
        factory = TOPOLOGY_PRESETS.get(args.preset)
        if factory is None:
            raise SystemExit(
                f"unknown topology preset {args.preset!r}; available: "
                f"{', '.join(sorted(TOPOLOGY_PRESETS))}"
            )
        targets.append((args.preset, factory()))
    if args.file:
        try:
            cluster = cluster_from_json(open(args.file).read())
        except ClusterError as exc:
            raise SystemExit(f"{args.file}: invalid topology: {exc}")
        targets.append((args.file, cluster))
    return targets


def _cmd_topology_show(args: argparse.Namespace) -> int:
    targets = _topology_targets(args)
    if not targets:
        raise SystemExit("topology show needs --preset or --file")
    for name, cluster in targets:
        if cluster.topology is None:
            print(f"{name}: no topology attached (flat pairwise mesh)")
            continue
        print(f"{name}:")
        print(cluster.topology.render())
    return 0


def _cmd_topology_check(args: argparse.Namespace) -> int:
    from .cluster import TOPOLOGY_PRESETS

    targets = _topology_targets(args)
    if not targets:
        # Default: validate every topology preset (the CI smoke job).
        targets = [(name, factory()) for name, factory
                   in sorted(TOPOLOGY_PRESETS.items())]
    worst = 0
    for name, cluster in targets:
        if cluster.topology is None:
            print(f"{name}: no topology attached (flat pairwise mesh) — ok")
            continue
        report = cluster.topology.validate(cluster)
        print(f"{name}: {report.render()}")
        if not report.ok:
            worst = 1
    return worst


def _fmt_eta(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


def _campaign_telemetry(args: argparse.Namespace):
    """Build the side-channel EventBus for ``--live``/``--telemetry``.

    Returns None when neither flag asks for one.  The bus never touches
    the canonical results — progress/ETA lines come from subscriber
    callbacks on campaign events, results.jsonl stays byte-identical.
    """
    from .obs import EventBus

    live = getattr(args, "live", False)
    sink = getattr(args, "telemetry", None)
    if not live and sink is None:
        return None
    bus = EventBus(capacity=4096, sink=sink)
    if live:
        def status_line(event) -> None:
            if (event.category, event.name) != ("campaign", "cell.finish"):
                return
            p = event.payload
            print(f"  live: {p['done']}/{p['total']} cells, "
                  f"last {p['wall_seconds']:.2f}s, "
                  f"ETA {_fmt_eta(p['eta_seconds'])}", flush=True)
        bus.subscribe(status_line)
    return bus


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from .campaign import load_config, run_campaign

    config = load_config(args.config)
    print(f"campaign {config.name!r}: driver {config.driver.name}, "
          f"{config.n_runs} run(s), seed {config.seed}")

    def progress(spec, row) -> None:
        cell = ", ".join(f"{k}={v}" for k, v in sorted(spec.cell.items()))
        if row["status"] == "ok":
            print(f"  [{spec.index + 1}/{config.n_runs}] {cell}: ok")
        else:
            print(f"  [{spec.index + 1}/{config.n_runs}] {cell}: "
                  f"ERROR {row['error']}")

    bus = _campaign_telemetry(args)
    try:
        writer = run_campaign(config, args.out,
                              progress=None if args.quiet else progress,
                              telemetry=bus)
    finally:
        if bus is not None:
            bus.close()
    errors = sum(1 for r in writer.rows if r["status"] == "error")
    where = f" -> {args.out}/results.jsonl" if args.out else ""
    print(f"{len(writer.rows)} run(s), {errors} error(s){where}")
    return 1 if errors else 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from .campaign import load_config, run_campaign
    from .obs import EventBus, MetricsRegistry, MonitorServer

    config = load_config(args.config)
    registry = MetricsRegistry()
    bus = EventBus(capacity=4096, sink=args.telemetry)

    def progress_gauges(event) -> None:
        # Fold campaign progress into scrapeable series so /metrics shows
        # done/total/ETA alongside whatever the run itself records.
        if event.category != "campaign":
            return
        p = event.payload
        if event.name == "start":
            registry.gauge("campaign.cells.total").set(float(p["total"]))
            registry.gauge("campaign.cells.done").set(0.0)
        elif event.name == "cell.finish":
            registry.gauge("campaign.cells.done").set(float(p["done"]))
            registry.gauge("campaign.eta_seconds").set(
                float(p["eta_seconds"]))
            if p["status"] != "ok":
                registry.counter("campaign.cell.errors").inc()

    bus.subscribe(progress_gauges)
    server = MonitorServer(metrics=registry, telemetry=bus,
                           host=args.host, port=args.port).start()
    print(f"campaign {config.name!r}: monitoring at {server.url} "
          f"(/metrics /snapshot /events /healthz)", flush=True)
    try:
        writer = run_campaign(config, args.out, telemetry=bus)
        errors = sum(1 for r in writer.rows if r["status"] == "error")
        where = f" -> {args.out}/results.jsonl" if args.out else ""
        print(f"{len(writer.rows)} run(s), {errors} error(s){where}",
              flush=True)
        if args.hold > 0:
            import time as _time

            print(f"holding the endpoint for {args.hold:g}s "
                  f"(ctrl-c to stop)", flush=True)
            _time.sleep(args.hold)
        return 1 if errors else 0
    finally:
        server.stop()
        bus.close()


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .obs import EventBus
    from .serve import ServeServer

    bus = EventBus(capacity=4096, sink=args.telemetry)
    server = ServeServer(
        host=args.host, port=args.port, workers=args.workers,
        telemetry=bus,
        max_inflight_per_tenant=args.tenant_quota,
        max_inflight_total=args.max_inflight,
    )

    def announce(srv) -> None:
        print(f"serving HMPI jobs at {srv.url} "
              f"(POST /v1/jobs; /metrics /healthz; "
              f"{args.workers or 'inline'} worker(s))", flush=True)

    try:
        asyncio.run(server.run(on_ready=announce))
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        bus.close()
    return 0


def _cmd_campaign_check(args: argparse.Namespace) -> int:
    from .campaign import check_against_baseline, load_baseline, read_rows

    rows = read_rows(args.results)
    failures = check_against_baseline(rows, load_baseline(args.baseline))
    if failures:
        print(f"{len(failures)} regression(s) vs {args.baseline}:",
              file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"{len(rows)} run(s) within tolerance of {args.baseline}")
    return 0


def _cmd_campaign_list(args: argparse.Namespace) -> int:
    from .campaign import DRIVERS, load_config

    if args.config is None:
        table = Table("driver", "parameters", title="Campaign drivers")
        for name, driver in sorted(DRIVERS.items()):
            table.add(name, ", ".join(driver.params))
        print(table.render())
        return 0
    config = load_config(args.config)
    print(f"campaign {config.name!r}: driver {config.driver.name}, "
          f"seed {config.seed}")
    table = Table("run", "seed", "cell",
                  title=f"{config.n_runs} expanded run(s)")
    for spec in config.expand():
        cell = ", ".join(f"{k}={v}" for k, v in sorted(spec.cell.items()))
        table.add(spec.index, spec.seed, cell)
    print(table.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HMPI reproduction (Lastovetsky & Reddy, IPPS 2003)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compile", help="compile and check a PMDL model file")
    pc.add_argument("file")
    pc.add_argument("--bind", nargs="+", metavar="NAME=VALUE", default=None,
                    help="bind parameters (JSON values; the rest take "
                         "probe values) and check the scheme's coverage "
                         "of the declared volumes; findings exit nonzero")
    pc.set_defaults(fn=_cmd_compile)

    pchk = sub.add_parser(
        "check", help="static analysis of PMDL files (no parameter binding)")
    pchk.add_argument("files", nargs="*", metavar="FILE")
    pchk.add_argument("--apps", action="store_true",
                      help="also check the built-in application models")
    pchk.add_argument("--strict", action="store_true",
                      help="exit nonzero on warnings, not just errors")
    pchk.add_argument("--json", action="store_true",
                      help="machine-readable diagnostic reports")
    pchk.add_argument("--net", action="store_true",
                      help="also unroll each scheme into its communication "
                           "net and run the PM08x structural checks "
                           "(deadlock, orphan messages, multiplicity, "
                           "unreachable transitions)")
    pchk.add_argument("--net-dot", default=None, metavar="FILE",
                      help="write the unrolled nets as Graphviz DOT "
                           "(implies --net)")
    pchk.set_defaults(fn=_cmd_check)

    pn = sub.add_parser(
        "net", help="unroll a PMDL scheme into its communication net")
    pn.add_argument("file", nargs="?", default=None, metavar="FILE")
    pn.add_argument("--app", choices=["em3d", "matmul", "jacobi"],
                    default=None,
                    help="unroll a built-in application model instead")
    pn.add_argument("--bind", nargs="+", metavar="NAME=VALUE", default=None,
                    help="bind parameters (JSON values); default is the "
                         "automatic probe binding")
    pn.add_argument("--dot", default=None, metavar="FILE",
                    help="write the net as Graphviz DOT")
    pn.add_argument("--trace", default=None, metavar="FILE",
                    help="write the predicted firing schedule as "
                         "Chrome-trace JSON (paper cluster, round-robin "
                         "mapping)")
    pn.set_defaults(fn=_cmd_net)

    from .cluster import TOPOLOGY_PRESETS

    pk = sub.add_parser("cluster", help="dump a preset cluster as JSON")
    pk.add_argument("--preset",
                    choices=["paper", "multiprotocol",
                             *sorted(TOPOLOGY_PRESETS)],
                    default="paper")
    pk.set_defaults(fn=_cmd_cluster)

    ptopo = sub.add_parser(
        "topology", help="inspect/validate hierarchical network topologies")
    topo_sub = ptopo.add_subparsers(dest="topology_command", required=True)
    for name, fn, help_text in (
        ("show", _cmd_topology_show, "render the hierarchy tree"),
        ("check", _cmd_topology_check,
         "run validation diagnostics (default: all presets); "
         "exits nonzero on errors"),
    ):
        sp = topo_sub.add_parser(name, help=help_text)
        sp.add_argument("--preset", default=None,
                        help=f"topology preset ({', '.join(sorted(TOPOLOGY_PRESETS))})")
        sp.add_argument("--file", default=None,
                        help="cluster JSON file (repro cluster output)")
        sp.set_defaults(fn=fn)

    pt = sub.add_parser(
        "trace", help="run an instrumented scenario, write Chrome-trace JSON")
    _scenario_flags(pt)
    pt.add_argument("--out", default="trace.json",
                    help="Chrome-trace output path (default trace.json)")
    pt.add_argument("--metrics", default=None, metavar="PATH",
                    help="also write the metrics snapshot JSON here")
    pt.set_defaults(fn=_cmd_trace)

    ps = sub.add_parser(
        "stats", help="run an instrumented scenario, print metrics + accuracy")
    _scenario_flags(ps)
    ps.add_argument("--json", action="store_true",
                    help="print the raw snapshot JSON instead of tables")
    ps.set_defaults(fn=_cmd_stats)

    pcamp = sub.add_parser(
        "campaign", help="declarative scenario campaigns (docs/CAMPAIGNS.md)")
    camp_sub = pcamp.add_subparsers(dest="campaign_command", required=True)
    cr = camp_sub.add_parser(
        "run", help="run every cell of a campaign JSON")
    cr.add_argument("config", metavar="CONFIG", help="campaign JSON file")
    cr.add_argument("--out", default=None, metavar="DIR",
                    help="write results.jsonl + summary.json here")
    cr.add_argument("--quiet", action="store_true",
                    help="no per-run progress lines")
    cr.add_argument("--live", action="store_true",
                    help="stream done/total + ETA status lines "
                         "(side channel; results are unchanged)")
    cr.add_argument("--telemetry", default=None, metavar="FILE",
                    help="append campaign telemetry events as JSONL")
    cr.set_defaults(fn=_cmd_campaign_run)
    cc = camp_sub.add_parser(
        "check", help="compare results against a regression baseline")
    cc.add_argument("results", metavar="RESULTS",
                    help="results.jsonl file (or the --out directory)")
    cc.add_argument("--baseline", required=True, metavar="FILE",
                    help="committed baseline JSON")
    cc.set_defaults(fn=_cmd_campaign_check)
    cl = camp_sub.add_parser(
        "list", help="list a config's expanded runs, or all drivers")
    cl.add_argument("config", nargs="?", default=None, metavar="CONFIG")
    cl.set_defaults(fn=_cmd_campaign_list)

    pm = sub.add_parser(
        "monitor", help="run a campaign behind a live HTTP monitoring "
                        "endpoint (docs/OBSERVABILITY.md)")
    pm.add_argument("config", metavar="CONFIG", help="campaign JSON file")
    pm.add_argument("--host", default="127.0.0.1",
                    help="bind address (default 127.0.0.1)")
    pm.add_argument("--port", type=int, default=0,
                    help="bind port (default 0 = ephemeral)")
    pm.add_argument("--out", default=None, metavar="DIR",
                    help="write results.jsonl + summary.json here")
    pm.add_argument("--telemetry", default=None, metavar="FILE",
                    help="append telemetry events as JSONL")
    pm.add_argument("--hold", type=float, default=0.0, metavar="SECONDS",
                    help="keep serving this long after the campaign ends")
    pm.set_defaults(fn=_cmd_monitor)

    psv = sub.add_parser(
        "serve", help="multi-tenant HMPI prediction/selection server "
                      "(docs/SERVING.md)")
    psv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    psv.add_argument("--port", type=int, default=0,
                     help="bind port (default 0 = ephemeral)")
    psv.add_argument("--workers", type=int, default=0,
                     help="worker processes sharding the worlds "
                          "(default 0 = inline threads)")
    psv.add_argument("--tenant-quota", type=int, default=64,
                     help="max in-flight jobs per tenant before 429")
    psv.add_argument("--max-inflight", type=int, default=1024,
                     help="max in-flight jobs server-wide before 429")
    psv.add_argument("--telemetry", default=None, metavar="FILE",
                     help="append serve telemetry events as JSONL")
    psv.set_defaults(fn=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    from .util.errors import OptionError

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OptionError as exc:
        # Usage errors (bad registry strings, malformed campaign configs,
        # CampaignError) exit like argparse does: message + code 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
