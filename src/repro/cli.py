"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``compile FILE``
    Compile a PMDL model file (static analysis included) and print the
    canonical source; analyzer errors exit nonzero.
``check FILE [FILE ...]``
    Report coded ``PM0xx`` diagnostics.  ``--strict`` fails on warnings,
    ``--json`` emits machine-readable reports, ``--apps [APP ...]`` also
    checks the built-in application models (all, or the named ones).
    ``--net`` unrolls each scheme into its communication net once — at
    the probe binding, or at ``--bind NAME=VALUE`` values — runs the
    PM08x checks on it and prints its summary; ``--dot FILE`` draws those
    nets and ``--trace FILE`` writes the one algorithm's predicted firing
    schedule (paper cluster, round-robin mapping).  Each implies ``--net``.
``cluster``
    Print a preset cluster configuration as a JSON snapshot (edit it,
    feed it back to experiments, campaigns or the server).
``topology show`` / ``topology check``
    Render a cluster's hierarchy tree (``show``) or run the topology
    validation diagnostics (``check``; exits nonzero on errors).  Both
    accept ``--preset`` (a topology preset name) or ``--file`` (a world
    spec in JSON, such as ``repro cluster`` output); ``check`` with
    neither validates every topology preset.
``trace CONFIG``
    Run one cell of a campaign (``--cell N``, default 0) with an
    :class:`~repro.obs.Observability` on its HMPI run, write the
    Chrome-trace JSON — load it in Perfetto or ``chrome://tracing`` for
    per-rank lanes plus nested runtime spans — and print the metrics
    snapshot (selection-cache statistics included) and the Timeof
    prediction-accuracy table.  ``--metrics PATH`` also writes the
    snapshot as JSON.  ``examples/campaigns/trace_*.json`` hold the
    standard scenarios.  A cell that records no engine events and no
    runtime spans (a selection-only driver such as ``timeof_em3d``) has
    nothing to trace: it exits 1 and writes no file.
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
``serve``
    The multi-tenant prediction/selection job server (``docs/SERVING.md``);
    it also serves ``/metrics``, ``/snapshot``, ``/events`` and ``/healthz``.

Option errors (unknown campaign axis or cell, bad registry string,
malformed config or ``--bind`` value) exit with code 2 and a one-line
``error:`` message — never a traceback.  Input that cannot be read or
does not parse, and an output path that cannot be written, exit 1 the
same way.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cluster import CLUSTER_PRESETS, TOPOLOGY_PRESETS
from .cluster.serialize import cluster_from_spec, cluster_to_dict
from .util.errors import ClusterError, OptionError, PMDLError
from .util.tables import Table

__all__ = ["main"]

#: The built-in application models ``check --apps`` can select.
APPS = ("em3d", "matmul", "jacobi")


def _writable(*paths: str | None) -> None:
    """Fail on an unwritable output path before anything is printed; a
    file the probe creates is removed again."""
    for path in filter(None, paths):
        existed = os.path.exists(path)
        open(path, "a").close()
        if not existed:
            os.remove(path)


def _cmd_trace(args: argparse.Namespace) -> int:
    from .campaign import load_config, run_one
    from .obs import Observability

    config = load_config(args.config)
    specs = config.expand()
    if not 0 <= args.cell < len(specs):
        raise OptionError(f"--cell {args.cell}: campaign {config.name!r} has "
                          f"{len(specs)} cell(s)")
    spec = specs[args.cell]
    _writable(args.out, args.metrics)
    obs = Observability()
    metrics = run_one(config, spec, obs=obs)
    if not obs.spans and not len(obs.tracer or ()):
        print(f"error: {config.name} cell {spec.index}: driver "
              f"{config.driver.name} recorded no engine events and no "
              f"runtime spans; nothing to trace", file=sys.stderr)
        return 1
    cell = ", ".join(f"{k}={v}" for k, v in sorted(spec.cell.items()))
    print(f"{config.name} cell {spec.index} ({cell}), driver "
          f"{config.driver.name}:")
    print("  " + ", ".join(f"{k}={v:.6g}" if isinstance(v, float)
                           else f"{k}={v}" for k, v in metrics.items()))
    obs.write_chrome_trace(args.out, metadata={"campaign": config.name,
                                               "cell": spec.index})
    snap = obs.snapshot()
    print(f"wrote {args.out}: {len(obs.chrome_trace()['traceEvents'])} "
          f"events ({snap['spans']} runtime spans) — open in Perfetto "
          f"or chrome://tracing")
    if args.metrics:
        with open(args.metrics, "w") as fh:
            fh.write(obs.metrics.to_json())
            fh.write("\n")
        print(f"wrote {args.metrics}: metrics snapshot")
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
    return 1 if metrics.get("error") else 0


def _parse_bindings(pairs: list[str]) -> dict:
    bindings = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            raise OptionError(f"--bind expects NAME=VALUE, got {pair!r}")
        try:
            bindings[name] = json.loads(value)
        except json.JSONDecodeError:
            raise OptionError(f"--bind {name}: {value!r} is not valid JSON")
    return bindings


def _cmd_compile(args: argparse.Namespace) -> int:
    from .perfmodel import compile_source, parse, stub_externals
    from .perfmodel.printer import format_unit

    source = open(args.file).read()
    models = compile_source(source, externals=stub_externals(source))
    print(f"compiled {len(models)} algorithm(s): {', '.join(models)}")
    for name, model in models.items():
        for diag in model.diagnostics:
            print(f"{args.file}: {name}: {diag.render()}")
    print()
    print(format_unit(parse(source)))
    return 0


def _check_targets(args: argparse.Namespace) -> list[tuple[str, str, dict | None]]:
    """(name, source, externals) triples for the ``check`` targets.

    The built-in app targets carry their real external functions so the
    net checks can unroll their schemes (matmul's ``GetProcessor``).
    """
    targets: list[tuple[str, str, dict | None]] = []
    for path in args.files:
        targets.append((path, open(path).read(), None))
    if args.apps is not None:
        from .apps.em3d.model import EM3D_MODEL_SOURCE
        from .apps.jacobi.model import JACOBI_MODEL_SOURCE
        from .apps.matmul.model import MM_MODEL_SOURCE, make_get_processor
        apps = {"em3d": (EM3D_MODEL_SOURCE, None),
                "matmul": (MM_MODEL_SOURCE,
                           {"GetProcessor": make_get_processor()}),
                "jacobi": (JACOBI_MODEL_SOURCE, None)}
        targets += [(f"<app:{name}>", *apps[name])
                    for name in args.apps or APPS]
    return targets


def _cmd_check(args: argparse.Namespace) -> int:
    from .perfmodel import check_source

    targets = _check_targets(args)
    if not targets:
        raise OptionError("nothing to check: pass model files and/or --apps")
    bindings = _parse_bindings(args.bind or [])
    net = (args.net or args.bind is not None or args.dot is not None
           or args.trace is not None)
    # One compile and one unroll per algorithm: `nets` receives the net
    # the checks ran on, and the summary, DOT and trace all draw it.
    reports, algorithms = [], []
    for target, source, externals in targets:
        nets: dict = {}
        reports.append(check_source(source, target=target, net=net,
                                    externals=externals, bindings=bindings,
                                    nets=nets))
        algorithms += [(target, name, *entry) for name, entry in nets.items()]
    unknown = set(bindings).difference(
        p.name for _, _, alg, _, _ in algorithms for p in alg.params)
    if unknown:
        raise OptionError(f"--bind {', '.join(sorted(unknown))}: no algorithm "
                          "has a parameter of that name")
    if args.trace is not None and len(algorithms) != 1:
        raise OptionError(f"--trace needs exactly one algorithm among the "
                          f"targets, found {len(algorithms)}")
    _writable(args.dot, args.trace)

    # One exit computation shared by both output paths: warnings-only
    # stays 0, --strict promotes warnings — identically for JSON and text.
    exit_code = max(r.exit_code(strict=args.strict) for r in reports)
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for report in reports:
            print(report.render())
        if net:
            for _, name, _, _, cnet in algorithms:
                print(f"{name}: {cnet.summary() if cnet else 'no net built'}")
    if args.dot is not None:
        with open(args.dot, "w") as fh:
            fh.write("\n".join(
                f"// {target}: {name}\n" + (cnet.to_dot(title=name) if cnet
                                            else "// no net built")
                for target, name, _, _, cnet in algorithms) + "\n")
    # a net asked for at given values or for a trace must exist
    unbuilt = [name for _, name, _, _, cnet in algorithms if cnet is None]
    if unbuilt and (args.bind is not None or args.trace is not None):
        print(f"error: no net built for {', '.join(unbuilt)} (see the "
              "diagnostics)", file=sys.stderr)
        return 1
    if args.trace is not None:
        from .core.netmodel import NetworkModel
        from .obs.chrometrace import write_chrome_trace
        from .obs.netexport import net_chrome_trace

        _, _, _, bound, cnet = algorithms[0]
        # the paper cluster, one process per machine round-robin
        cluster = cluster_from_spec("paper")
        netmodel = NetworkModel(cluster, list(range(cluster.size)))
        machines = [i % cluster.size for i in range(bound.nproc)]
        write_chrome_trace(args.trace, net_chrome_trace(
            bound, netmodel, machines, net=cnet))
    return exit_code


def _cmd_cluster(args: argparse.Namespace) -> int:
    print(json.dumps(cluster_to_dict(cluster_from_spec(args.preset)), indent=2))
    return 0


def _topology_targets(args: argparse.Namespace) -> list[tuple[str, "object"]]:
    """(name, cluster) pairs selected by --preset/--file flags."""

    targets: list[tuple[str, object]] = []
    if args.preset:
        if args.preset not in TOPOLOGY_PRESETS:
            raise OptionError(
                f"unknown topology preset {args.preset!r}; available: "
                f"{', '.join(sorted(TOPOLOGY_PRESETS))}"
            )
        targets.append((args.preset, cluster_from_spec(args.preset)))
    if args.file:
        try:
            with open(args.file) as fh:
                cluster = cluster_from_spec(json.load(fh))
        except (OSError, ValueError, ClusterError) as exc:
            raise ClusterError(f"{args.file}: {exc}") from exc
        targets.append((args.file, cluster))
    return targets


def _cmd_topology_show(args: argparse.Namespace) -> int:
    targets = _topology_targets(args)
    if not targets:
        raise OptionError("topology show needs --preset or --file")
    for name, cluster in targets:
        if cluster.topology is None:
            print(f"{name}: no topology attached (flat pairwise mesh)")
            continue
        print(f"{name}:")
        print(cluster.topology.render())
    return 0


def _cmd_topology_check(args: argparse.Namespace) -> int:
    targets = _topology_targets(args)
    if not targets:
        # Default: validate every topology preset (the CI smoke job).
        targets = [(name, cluster_from_spec(name))
                   for name in sorted(TOPOLOGY_PRESETS)]
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

    pc = sub.add_parser("compile", help="compile a PMDL model file and "
                                        "print its canonical source")
    pc.add_argument("file")
    pc.set_defaults(fn=_cmd_compile)

    pchk = sub.add_parser(
        "check", help="check PMDL models; --net also unrolls and checks "
                      "their communication nets")
    pchk.add_argument("files", nargs="*", metavar="FILE")
    pchk.add_argument("--apps", nargs="*", choices=APPS, default=None,
                      metavar="APP",
                      help="also check the built-in application models "
                           f"(all, or the named ones: {', '.join(APPS)})")
    pchk.add_argument("--strict", action="store_true",
                      help="exit nonzero on warnings, not just errors")
    pchk.add_argument("--json", action="store_true",
                      help="machine-readable diagnostic reports")
    pchk.add_argument("--net", action="store_true",
                      help="also unroll each scheme into its communication "
                           "net and run the PM08x structural checks "
                           "(deadlock, orphan messages, multiplicity, "
                           "unreachable transitions)")
    pchk.add_argument("--bind", nargs="+", metavar="NAME=VALUE", default=None,
                      help="run the net checks at these parameter values "
                           "(JSON; the rest take probe values; implies --net)")
    pchk.add_argument("--dot", default=None, metavar="FILE",
                      help="write the unrolled nets as Graphviz DOT "
                           "(implies --net)")
    pchk.add_argument("--trace", default=None, metavar="FILE",
                      help="write the one algorithm's predicted firing "
                           "schedule as Chrome-trace JSON (paper cluster, "
                           "round-robin mapping; implies --net)")
    pchk.set_defaults(fn=_cmd_check)

    pk = sub.add_parser("cluster", help="dump a preset cluster as JSON")
    pk.add_argument("--preset", choices=list(CLUSTER_PRESETS),
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
        "trace", help="run one campaign cell observed: write its Chrome "
                      "trace, print metrics + accuracy")
    pt.add_argument("config", metavar="CONFIG",
                    help="campaign JSON file (examples/campaigns/trace_*.json)")
    pt.add_argument("--cell", type=int, default=0,
                    help="index of the expanded cell to run (default 0; "
                         "see campaign list)")
    pt.add_argument("--out", default="trace.json",
                    help="Chrome-trace output path (default trace.json)")
    pt.add_argument("--metrics", default=None, metavar="PATH",
                    help="also write the metrics snapshot JSON here")
    pt.set_defaults(fn=_cmd_trace)

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
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OptionError as exc:
        # Usage errors (bad registry strings, malformed campaign configs
        # or --bind values, CampaignError) exit like argparse does:
        # message + code 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ClusterError, PMDLError) as exc:
        # A cluster file or model that does not parse: one line, code 1.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # An input that cannot be read or an output that cannot be written.
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
