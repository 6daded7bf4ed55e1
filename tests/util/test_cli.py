"""Command-line interface."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main

ROOT = Path(__file__).parents[2]
RING = str(ROOT / "examples" / "models" / "ring.pmdl")
TRACE_JACOBI = str(ROOT / "examples" / "campaigns" / "trace_jacobi.json")
TRACE_MATMUL = str(ROOT / "examples" / "campaigns" / "trace_matmul.json")
TRACE_EM3D = str(ROOT / "examples" / "campaigns" / "trace_em3d.json")
MAPPER_ABLATION = str(ROOT / "examples" / "campaigns" / "mapper_ablation.json")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("command", ["stats", "monitor", "net"])
    def test_retired_commands_are_invalid_choices(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err


class TestCommands:
    def test_cluster_json(self, capsys):
        assert main(["cluster", "--preset", "paper"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert len(blob["machines"]) == 9
        assert blob["machines"][6]["speed"] == 176

    def test_compile_model_file(self, tmp_path, capsys):
        model = tmp_path / "ring.mpc"
        model.write_text("""
        algorithm Ring(int p, int v[p]) {
          coord I=p;
          node {I>=0: bench*(v[I]);};
          link (L=p) { L == (I+1)%p : length*(64) [L]->[I]; };
          parent[0];
        }
        """)
        assert main(["compile", str(model)]) == 0
        out = capsys.readouterr().out
        assert "compiled 1 algorithm(s): Ring" in out
        assert "algorithm Ring" in out

    def test_compile_with_external_call(self, tmp_path, capsys):
        model = tmp_path / "ext.mpc"
        model.write_text("""
        algorithm Ext(int p) {
          coord I=p;
          node {I>=0: bench*(1);};
          scheme { Helper(p); };
        }
        """)
        assert main(["compile", str(model)]) == 0
        assert "Ext" in capsys.readouterr().out


class TestTopologyCommands:
    def test_show_renders_preset_tree(self, capsys):
        assert main(["topology", "show", "--preset", "two_site"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("two_site:\nwan  [site]")
        assert "site1  [subnet]" in out and "s1m03  [machine]" in out

    def test_check_defaults_to_every_preset(self, capsys):
        assert main(["topology", "check"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "clusters_of_clusters: ok", "two_site: ok"]

    def test_flat_cluster_file_has_no_topology(self, tmp_path, capsys):
        path = tmp_path / "paper.json"
        assert main(["cluster", "--preset", "paper"]) == 0
        path.write_text(capsys.readouterr().out)
        assert main(["topology", "show", "--file", str(path)]) == 0
        assert capsys.readouterr().out == (
            f"{path}: no topology attached (flat pairwise mesh)\n")
        assert main(["topology", "check", "--file", str(path)]) == 0
        assert capsys.readouterr().out == (
            f"{path}: no topology attached (flat pairwise mesh) — ok\n")

    @pytest.mark.parametrize("command", ["show", "check"])
    def test_invalid_topology_file_is_reported(self, command, tmp_path,
                                               capsys):
        # two_site with site1's protocols emptied fails Topology.bind
        assert main(["cluster", "--preset", "two_site"]) == 0
        blob = json.loads(capsys.readouterr().out)
        levels = [blob["topology"]]
        while levels:
            level = levels.pop()
            if level.get("name") == "site1":
                level["protocols"] = []
            levels += level.get("children", [])
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(blob))
        assert main(["topology", command, "--file", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(rf"error: {re.escape(str(path))}: topology: "
                            r".*site1.* no protocols.*\n", err)


class TestBadInput:
    """A bad option or input file exits with its code (2 for usage, 1
    for a file that cannot be read, does not parse or cannot be
    written), one ``error:`` line and no stdout.  ``{file}`` is a path
    in a fresh directory; ``{file}/x`` is therefore unwritable."""

    NOT_SNAPSHOT = {"single_port": False, "links": []}
    SQUARE_WITHOUT_PERIOD = {"machines": [
        {"name": "a", "speed": 1.0, "load": {"kind": "square", "high": 0.9}}]}
    UNKNOWN_PRESET = ("unknown topology preset 'nope'; available: "
                      "clusters_of_clusters, two_site")
    DEATH_NOT_A_TIME = {"name": "t", "app": "jacobi_ft",
                        "axes": {"deaths": [{"2": "soon"}]}}
    MISSING = "{file}: [Errno 2] No such file or directory: '{file}'"
    UNWRITABLE = "{file}/x: [Errno 2] No such file or directory: '{file}/x'"

    @pytest.mark.parametrize("argv, content, code, message", [
        (["topology", "show", "--preset", "nope"], None, 2, UNKNOWN_PRESET),
        (["topology", "check", "--preset", "nope"], None, 2, UNKNOWN_PRESET),
        (["topology", "show"], None, 2,
         "topology show needs --preset or --file"),
        (["topology", "show", "--file", "{file}"], NOT_SNAPSHOT, 1,
         "{file}: machines: required (or a 'kind' for a constructor dict)"),
        (["topology", "check", "--file", "{file}"], SQUARE_WITHOUT_PERIOD, 1,
         "{file}: machines[0].load.period: required"),
        (["topology", "show", "--file", "{file}"], "{", 1,
         "{file}: Expecting property name enclosed in double quotes: "
         "line 1 column 2 (char 1)"),
        (["topology", "check", "--file", "{file}"], None, 1, MISSING),
        (["compile", "{file}"], None, 1, MISSING),
        (["check", "{file}"], None, 1, MISSING),
        (["check", RING, "--dot", "{file}/x"], None, 1, UNWRITABLE),
        (["check", "--apps", "jacobi", "--trace", "{file}/x"], None, 1,
         UNWRITABLE),
        (["check"], None, 2,
         "nothing to check: pass model files and/or --apps"),
        (["check", "--apps", "jacobi", "--bind", "N=abc"], None, 2,
         "--bind N: 'abc' is not valid JSON"),
        (["check", RING, "--bind", "q=1"], None, 2,
         "--bind q: no algorithm has a parameter of that name"),
        (["check", "--apps", "--trace", "{file}"], None, 2,
         "--trace needs exactly one algorithm among the targets, found 3"),
        (["trace", "{file}"], None, 2, "no campaign file at {file}"),
        (["trace", "{file}"], DEATH_NOT_A_TIME, 2,
         "bad deaths spec {'2': 'soon'}: could not convert string to float: "
         "'soon'"),
        (["trace", TRACE_JACOBI, "--cell", "2"], None, 2,
         "--cell 2: campaign 'trace_jacobi' has 2 cell(s)"),
        (["trace", TRACE_JACOBI, "--out", "{file}/x"], None, 1, UNWRITABLE),
        (["trace", TRACE_JACOBI, "--out", "{file}", "--metrics", "{file}/x"],
         None, 1, UNWRITABLE),
        (["trace", MAPPER_ABLATION, "--out", "{file}"], None, 1,
         "mapper_ablation cell 0: driver timeof_em3d recorded no engine "
         "events and no runtime spans; nothing to trace"),
    ], ids=["show-unknown-preset", "check-unknown-preset", "show-no-target",
            "file-without-machines", "file-square-without-period",
            "file-not-json", "file-missing", "compile-missing",
            "check-missing", "check-dot-unwritable",
            "check-trace-unwritable", "check-no-target",
            "check-bind-not-json",
            "check-bind-unknown-name", "check-trace-not-one-algorithm",
            "trace-missing-config", "trace-deaths-not-a-time",
            "trace-cell-out-of-range",
            "trace-out-unwritable", "trace-metrics-unwritable",
            "trace-selection-only-driver"])
    def test_exits_with_one_error_line_and_no_stdout(
            self, argv, content, code, message, tmp_path, capsys):
        path = str(tmp_path / "world.json")
        if content is not None:
            Path(path).write_text(
                content if isinstance(content, str) else json.dumps(content))
        argv = [a.replace("{file}", path) for a in argv]
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message.replace('{file}', path)}\n"
        if content is None:  # a rejected command leaves no file behind
            assert not Path(path).exists()


class TestCheckCommand:
    DEFECT = """
    algorithm Oob(int p) {
      coord I=p;
      node {I>=0: bench*(1);};
      scheme { 100%%[p]; };
    }
    """
    CLEAN = """
    algorithm Clean(int p) {
      coord I=p;
      node {I>=0: bench*(1);};
      scheme { int i; par (i = 0; i < p; i++) 100%%[i]; };
    }
    """

    def test_defective_model_exits_nonzero(self, tmp_path, capsys):
        f = tmp_path / "oob.pmdl"
        f.write_text(self.DEFECT)
        assert main(["check", str(f)]) == 1
        out = capsys.readouterr().out
        assert "PM010" in out
        assert "error" in out

    def test_clean_model_exits_zero(self, tmp_path, capsys):
        f = tmp_path / "clean.pmdl"
        f.write_text(self.CLEAN)
        assert main(["check", str(f), "--strict"]) == 0

    def test_strict_gates_on_warnings(self, tmp_path):
        f = tmp_path / "warn.pmdl"
        f.write_text("""
        algorithm Warn(int p, int q) {
          coord I=p;
          node {I>=0: bench*(1);};
        }
        """)
        assert main(["check", str(f)]) == 0
        assert main(["check", str(f), "--strict"]) == 1

    def test_json_output(self, tmp_path, capsys):
        f = tmp_path / "oob.pmdl"
        f.write_text(self.DEFECT)
        assert main(["check", str(f), "--json"]) == 1
        blob = json.loads(capsys.readouterr().out)
        assert blob[0]["errors"] == 1
        assert blob[0]["diagnostics"][0]["code"] == "PM010"

    def test_apps_are_clean_under_strict(self, capsys):
        assert main(["check", "--apps", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "<app:em3d>" in out
        assert "<app:matmul>" in out

    def test_no_targets_is_usage_error(self, capsys):
        assert main(["check"]) == 2


class TestCheckExitCodeParity:
    """`check --json` must gate exactly like the text path (issue fix):
    warnings-only exits 0, `--strict` promotes warnings to 1 — in both
    output modes."""

    WARN = """
    algorithm Warn(int p, int q) {
      coord I=p;
      node {I>=0: bench*(1);};
    }
    """

    def test_json_warnings_only_exits_zero(self, tmp_path, capsys):
        f = tmp_path / "warn.pmdl"
        f.write_text(self.WARN)
        assert main(["check", str(f), "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob[0]["errors"] == 0 and blob[0]["warnings"] >= 1

    def test_json_strict_promotes_warnings(self, tmp_path, capsys):
        f = tmp_path / "warn.pmdl"
        f.write_text(self.WARN)
        assert main(["check", str(f), "--json", "--strict"]) == 1
        json.loads(capsys.readouterr().out)  # still valid JSON on stdout

    def test_json_and_text_exits_agree(self, tmp_path, capsys):
        f = tmp_path / "warn.pmdl"
        f.write_text(self.WARN)
        for strict in (False, True):
            flags = ["--strict"] if strict else []
            text_exit = main(["check", str(f), *flags])
            json_exit = main(["check", str(f), "--json", *flags])
            capsys.readouterr()
            assert text_exit == json_exit


class TestCheckNet:
    FIXTURES = __import__("pathlib").Path(__file__).parent.parent \
        / "perfmodel" / "fixtures"

    def test_net_flag_reports_deadlock(self, capsys):
        f = self.FIXTURES / "net_deadlock.pmdl"
        assert main(["check", str(f), "--net"]) == 1
        out = capsys.readouterr().out
        assert "PM080" in out

    def test_without_net_flag_fixture_passes(self, capsys):
        f = self.FIXTURES / "net_deadlock.pmdl"
        assert main(["check", str(f)]) == 0

    def test_net_json_orphan_warning_gates_consistently(self, capsys):
        f = self.FIXTURES / "net_orphan.pmdl"
        assert main(["check", str(f), "--net", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob[0]["diagnostics"][0]["code"] == "PM081"
        assert main(["check", str(f), "--net", "--json", "--strict"]) == 1

    def test_apps_clean_under_strict_net(self, capsys):
        assert main(["check", "--apps", "--strict", "--net"]) == 0

    def test_net_dot_writes_graphs_and_implies_net(self, tmp_path, capsys):
        f = self.FIXTURES / "net_orphan.pmdl"
        dot = tmp_path / "net.dot"
        assert main(["check", str(f), "--dot", str(dot), "--strict"]) == 1
        out = capsys.readouterr().out
        assert "PM081" in out  # --net implied
        text = dot.read_text()
        assert "digraph" in text and "->" in text


class TestNetCommand:
    """``check --net`` unrolls each algorithm once: its summary line, the
    PM08x checks, ``--dot`` and ``--trace`` all read that one net."""

    FIXTURES = __import__("pathlib").Path(__file__).parent.parent \
        / "perfmodel" / "fixtures"

    def test_summary_and_deadlock_exit(self, capsys):
        f = self.FIXTURES / "net_deadlock.pmdl"
        assert main(["check", str(f), "--net"]) == 1
        out = capsys.readouterr().out
        assert "NetDeadlock: net: 4 processors" in out and "PM080" in out

    def test_app_matmul_unrolls(self, capsys):
        assert main(["check", "--apps", "matmul", "--net"]) == 0
        out = capsys.readouterr().out
        assert "ParallelAxB: net:" in out and "transitions" in out
        assert "<app:em3d>" not in out

    def test_dot_output(self, tmp_path, capsys):
        dot = tmp_path / "em3d.dot"
        assert main(["check", "--apps", "em3d", "--dot", str(dot)]) == 0
        assert "digraph" in dot.read_text()
        assert "Em3d: net:" in capsys.readouterr().out  # --net implied

    def test_trace_output_is_valid_chrome_json(self, tmp_path, capsys):
        from repro.obs import validate_chrome_trace
        out = tmp_path / "net_trace.json"
        assert main(["check", "--apps", "jacobi", "--trace", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])

    def test_bind_overrides_probe(self, tmp_path, capsys):
        src = tmp_path / "ring.pmdl"
        src.write_text("""
        algorithm Ring(int p) {
          coord I=p;
          node {I>=0: bench*(1);};
          link (L=p) { L == (I+1)%p : length*(64) [I]->[L]; };
          scheme {
            int i;
            par (i = 0; i < p; i++) {
              100%%[i]->[(i+1)%p];
              100%%[i];
            }
          };
        }
        """)
        assert main(["check", str(src), "--bind", "p=6"]) == 0
        out = capsys.readouterr().out
        assert "6 processors" in out

    def test_no_target_is_usage_error(self, capsys):
        assert main(["check", "--net"]) == 2

    def test_bind_that_cannot_unroll_exits_one(self, capsys):
        # p=-1 gives v[p] no shape: the net asked for was not built
        assert main(["check", RING, "--bind", "p=-1"]) == 1
        out, err = capsys.readouterr()
        assert "PM084" in out and "Ring: no net built" in out
        assert err == "error: no net built for Ring (see the diagnostics)\n"

    def test_unknown_bind_name_is_usage_error(self, capsys):
        # N is Jacobi's, not Ring's: a name any target declares is valid
        assert main(["check", RING, "--apps", "jacobi", "--bind", "N=8"]) == 0
        capsys.readouterr()
        assert main(["check", RING, "--apps", "jacobi", "--bind", "q=6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --bind q: no algorithm has a "
                                "parameter of that name\n")


class TestCompileGating:
    def test_analysis_error_exits_nonzero(self, tmp_path, capsys):
        f = tmp_path / "oob.pmdl"
        f.write_text(TestCheckCommand.DEFECT)
        assert main(["compile", str(f)]) == 1
        assert "PM010" in capsys.readouterr().err

    def test_bind_runs_linter_and_gates(self, tmp_path, capsys):
        # the coverage check (PM082) warns; --strict makes it gate
        f = tmp_path / "under.pmdl"
        f.write_text("""
        algorithm Bad(int p) {
          coord I=p;
          node {I>=0: bench*(10);};
          scheme { int i; par (i = 0; i < p; i++) 50%%[i]; };
        }
        """)
        assert main(["check", str(f)]) == 0
        capsys.readouterr()
        assert main(["check", str(f), "--bind", "p=3"]) == 0
        assert main(["check", str(f), "--bind", "p=3", "--strict"]) == 1
        out = capsys.readouterr().out
        assert "0 error(s), 3 warning(s)" in out
        assert "PM082" in out and "50.0000%" in out

    def test_bind_consistent_model_exits_zero(self, tmp_path, capsys):
        f = tmp_path / "ok.pmdl"
        f.write_text("""
        algorithm Ok(int p) {
          coord I=p;
          node {I>=0: bench*(10);};
          scheme { int i; par (i = 0; i < p; i++) 100%%[i]; };
        }
        """)
        assert main(["check", str(f), "--bind", "p=4", "--strict"]) == 0
        assert "Ok: net: 4 processors" in capsys.readouterr().out

    def test_bind_leaves_other_parameters_at_probe_values(self, capsys):
        # v[p] is not bound: it takes the probe's all-ones at p=7
        assert main(["check", RING, "--bind", "p=7", "--strict"]) == 0
        assert "Ring: net: 7 processors" in capsys.readouterr().out

    def test_unknown_bind_name_is_usage_error(self, capsys):
        # compile no longer binds: `check --bind` is the one way in
        with pytest.raises(SystemExit) as exc:
            main(["compile", RING, "--bind", "p=6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bind" in capsys.readouterr().err


class TestMalformedValues:
    """A malformed --bind value is a usage error: exit 2, one line, for a
    model file, with --net and for a bundled app alike."""

    @pytest.mark.parametrize("argv, message", [
        (["check", RING, "--bind", "p"],
         "--bind expects NAME=VALUE, got 'p'"),
        (["check", RING, "--bind", "p=abc"],
         "--bind p: 'abc' is not valid JSON"),
        (["check", "--apps", "jacobi", "--net", "--bind", "p"],
         "--bind expects NAME=VALUE, got 'p'"),
    ])
    def test_exits_two_with_one_error_line(self, argv, message, capsys):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestCampaignCommands:
    CONFIG = {
        "name": "cli-test",
        "app": "timeof_em3d",
        "fixed": {"p": 3, "total_nodes": 600},
        "axes": {"mapper": ["greedy", "default"]},
    }

    def write_config(self, tmp_path, raw=None):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw or self.CONFIG))
        return path

    def test_run_writes_results_and_exits_zero(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["campaign", "run", str(cfg), "--out", str(out)]) == 0
        assert (out / "results.jsonl").exists()
        assert (out / "summary.json").exists()
        assert "2 run(s), 0 error(s)" in capsys.readouterr().out

    def test_check_passes_against_own_baseline(self, tmp_path, capsys):
        from repro.campaign import baseline_from_rows, read_rows
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        main(["campaign", "run", str(cfg), "--out", str(out), "--quiet"])
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(baseline_from_rows(read_rows(out))))
        capsys.readouterr()
        assert main(["campaign", "check", str(out),
                     "--baseline", str(baseline)]) == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_check_flags_regression_with_exit_one(self, tmp_path, capsys):
        from repro.campaign import baseline_from_rows, read_rows
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        main(["campaign", "run", str(cfg), "--out", str(out), "--quiet"])
        rows = read_rows(out)
        baseline = baseline_from_rows(rows)
        for cell in baseline["cells"]:
            cell["metrics"]["predicted_time"] *= 1.05  # inject >2% drift
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline))
        capsys.readouterr()
        assert main(["campaign", "check", str(out),
                     "--baseline", str(path)]) == 1
        assert "predicted_time" in capsys.readouterr().err

    def test_list_without_config_shows_drivers(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("timeof_em3d", "jacobi_ft", "iterative"):
            assert name in out

    def test_list_with_config_shows_expanded_runs(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert main(["campaign", "list", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "greedy" in out and "default" in out


class TestCampaignUsageErrors:
    """Every malformed invocation exits 2 with a one-line error on
    stderr — never a traceback (the CampaignError -> OptionError ->
    exit-2 contract)."""

    def check(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        return err

    def test_missing_config_file(self, tmp_path, capsys):
        err = self.check(capsys, ["campaign", "run",
                                  str(tmp_path / "nope.json")])
        assert "no campaign file" in err

    def test_invalid_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        self.check(capsys, ["campaign", "run", str(bad)])

    def test_unknown_driver(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "app": "nope",
                                   "axes": {"p": [1]}}))
        err = self.check(capsys, ["campaign", "run", str(bad)])
        assert "nope" in err and "timeof_em3d" in err

    def test_unknown_axis_parameter(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "app": "timeof_em3d",
                                   "axes": {"warp_factor": [9]}}))
        err = self.check(capsys, ["campaign", "run", str(bad)])
        assert "warp_factor" in err

    def test_check_missing_baseline(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(TestCampaignCommands.CONFIG))
        out = tmp_path / "out"
        main(["campaign", "run", str(cfg), "--out", str(out), "--quiet"])
        capsys.readouterr()
        err = self.check(capsys, ["campaign", "check", str(out),
                                  "--baseline", str(tmp_path / "nope.json")])
        assert "no baseline" in err

    def test_check_missing_results(self, tmp_path, capsys):
        baseline = tmp_path / "b.json"
        baseline.write_text(json.dumps(
            {"schema_version": 1, "tolerances": {}, "cells": []}))
        err = self.check(capsys, ["campaign", "check",
                                  str(tmp_path / "missing"),
                                  "--baseline", str(baseline)])
        assert "no results" in err


class TestCheckChoice:
    def test_choices_listed_in_declaration_order(self):
        from repro.util.errors import OptionError
        from repro.util.options import check_choice
        with pytest.raises(OptionError) as exc:
            check_choice("policy", "bogus",
                         ("never", "on-failure", "periodic"), OptionError)
        msg = str(exc.value)
        assert msg.index("never") < msg.index("on-failure") \
            < msg.index("periodic")

    def test_valid_choice_passes_through(self):
        from repro.util.errors import OptionError
        from repro.util.options import check_choice
        assert check_choice("policy", "periodic",
                            ("never", "on-failure", "periodic"),
                            OptionError) == "periodic"


class TestObservabilityCommands:
    def test_trace_writes_valid_chrome_json(self, tmp_path, capsys):
        from repro.obs import validate_chrome_trace

        out = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main(["trace", TRACE_JACOBI, "--out", str(out),
                     "--metrics", str(metrics)]) == 0
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        assert len(doc["traceEvents"]) > 0
        snap = json.loads(metrics.read_text())
        names = {s["name"] for s in snap["metrics"]}
        assert "hmpi.repairs" in names
        out = capsys.readouterr().out
        assert "Perfetto" in out and "repairs=1" in out

    def test_trace_matmul_fault_free(self, tmp_path):
        out = tmp_path / "mm.json"
        assert main(["trace", TRACE_MATMUL, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "HMPI_Timeof" in names
        assert doc["otherData"]["campaign"] == "trace_matmul"

    def test_trace_prints_metrics_and_accuracy_tables(self, tmp_path,
                                                       capsys):
        assert main(["trace", TRACE_MATMUL,
                     "--out", str(tmp_path / "mm.json")]) == 0
        out = capsys.readouterr().out
        assert "trace_matmul cell 0 (n=9)" in out
        assert "Metrics snapshot" in out
        assert "hmpi.selection.cache_misses" in out
        assert "Timeof prediction accuracy" in out
        assert "ParallelAxB" in out

    def test_trace_reaches_em3d(self, tmp_path, capsys):
        assert main(["trace", TRACE_EM3D,
                     "--out", str(tmp_path / "em3d.json")]) == 0
        assert re.search(r"^ Em3d \|", capsys.readouterr().out, re.M)


class TestCampaignLiveAndMonitor:
    CONFIG = {
        "name": "cli-live",
        "app": "timeof_em3d",
        "fixed": {"p": 3, "total_nodes": 600},
        "axes": {"mapper": ["greedy", "default"]},
    }

    def write_config(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(self.CONFIG))
        return path

    def test_live_prints_progress_and_eta(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert main(["campaign", "run", str(cfg), "--live"]) == 0
        out = capsys.readouterr().out
        assert "live: 1/2 cells" in out
        assert "live: 2/2 cells" in out
        assert "ETA" in out

    def test_telemetry_flag_writes_jsonl_sidecar(self, tmp_path):
        cfg = self.write_config(tmp_path)
        sidecar = tmp_path / "events.jsonl"
        assert main(["campaign", "run", str(cfg), "--quiet",
                     "--telemetry", str(sidecar)]) == 0
        events = [json.loads(l)
                  for l in sidecar.read_text().splitlines()]
        assert [e["name"] for e in events] == [
            "start", "cell.start", "cell.finish",
            "cell.start", "cell.finish", "finish"]
        assert all(e["schema"] == 1 for e in events)

    def test_live_leaves_results_bytes_unchanged(self, tmp_path):
        cfg = self.write_config(tmp_path)
        plain, live = tmp_path / "plain", tmp_path / "live"
        assert main(["campaign", "run", str(cfg), "--quiet",
                     "--out", str(plain)]) == 0
        assert main(["campaign", "run", str(cfg), "--quiet", "--live",
                     "--out", str(live)]) == 0
        assert (plain / "results.jsonl").read_bytes() == \
            (live / "results.jsonl").read_bytes()
