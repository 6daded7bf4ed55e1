"""Command-line interface."""

import json
import re
import time

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


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
        assert main(["check", str(f), "--net-dot", str(dot), "--strict"]) == 1
        out = capsys.readouterr().out
        assert "PM081" in out  # --net implied
        text = dot.read_text()
        assert "digraph" in text and "->" in text


class TestNetCommand:
    FIXTURES = __import__("pathlib").Path(__file__).parent.parent \
        / "perfmodel" / "fixtures"

    def test_summary_and_deadlock_exit(self, capsys):
        f = self.FIXTURES / "net_deadlock.pmdl"
        assert main(["net", str(f)]) == 1
        out = capsys.readouterr().out
        assert "transitions" in out and "PM080" in out

    def test_app_matmul_unrolls(self, capsys):
        assert main(["net", "--app", "matmul"]) == 0
        out = capsys.readouterr().out
        assert "ParallelAxB" in out and "transitions" in out

    def test_dot_output(self, tmp_path, capsys):
        dot = tmp_path / "em3d.dot"
        assert main(["net", "--app", "em3d", "--dot", str(dot)]) == 0
        assert "digraph" in dot.read_text()

    def test_trace_output_is_valid_chrome_json(self, tmp_path, capsys):
        from repro.obs import validate_chrome_trace
        out = tmp_path / "net_trace.json"
        assert main(["net", "--app", "jacobi", "--trace", str(out)]) == 0
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
        assert main(["net", str(src), "--bind", "p=6"]) == 0
        out = capsys.readouterr().out
        assert "6 processors" in out

    def test_no_target_is_usage_error(self, capsys):
        assert main(["net"]) == 2


class TestCompileGating:
    def test_analysis_error_exits_nonzero(self, tmp_path, capsys):
        f = tmp_path / "oob.pmdl"
        f.write_text(TestCheckCommand.DEFECT)
        assert main(["compile", str(f)]) == 1
        assert "PM010" in capsys.readouterr().err

    def test_bind_runs_linter_and_gates(self, tmp_path, capsys):
        f = tmp_path / "under.pmdl"
        f.write_text("""
        algorithm Bad(int p) {
          coord I=p;
          node {I>=0: bench*(10);};
          scheme { int i; par (i = 0; i < p; i++) 50%%[i]; };
        }
        """)
        assert main(["compile", str(f)]) == 0
        assert main(["compile", str(f), "--bind", "p=3"]) == 1
        assert "50.0000%" in capsys.readouterr().out

    def test_bind_consistent_model_exits_zero(self, tmp_path, capsys):
        f = tmp_path / "ok.pmdl"
        f.write_text("""
        algorithm Ok(int p) {
          coord I=p;
          node {I>=0: bench*(10);};
          scheme { int i; par (i = 0; i < p; i++) 100%%[i]; };
        }
        """)
        assert main(["compile", str(f), "--bind", "p=4"]) == 0
        assert "consistent" in capsys.readouterr().out


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
        assert main(["trace", "--out", str(out),
                     "--metrics", str(metrics)]) == 0
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        assert len(doc["traceEvents"]) > 0
        snap = json.loads(metrics.read_text())
        names = {s["name"] for s in snap["metrics"]}
        assert "hmpi.repairs" in names
        assert "Perfetto" in capsys.readouterr().out

    def test_trace_matmul_fault_free(self, tmp_path):
        out = tmp_path / "mm.json"
        assert main(["trace", "--app", "matmul", "--n", "9",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "HMPI_Timeof" in names

    def test_stats_prints_tables(self, capsys):
        assert main(["stats", "--app", "matmul", "--n", "9"]) == 0
        out = capsys.readouterr().out
        assert "Metrics snapshot" in out
        assert "hmpi.selection.cache_misses" in out
        assert "Timeof prediction accuracy" in out

    def test_stats_json(self, capsys):
        assert main(["stats", "--app", "matmul", "--n", "9", "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert "metrics" in snap and "accuracy" in snap
        assert snap["accuracy"]["ParallelAxB"]["measured"] == 1


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

    def test_monitor_runs_campaign_and_serves_endpoint(
            self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        sidecar = tmp_path / "events.jsonl"
        assert main(["monitor", str(cfg), "--out", str(out),
                     "--telemetry", str(sidecar)]) == 0
        printed = capsys.readouterr().out
        assert "monitoring at http://127.0.0.1:" in printed
        assert "2 run(s), 0 error(s)" in printed
        assert (out / "results.jsonl").exists()
        assert sidecar.exists()

    def test_monitor_endpoint_live_during_hold(self, tmp_path):
        import threading
        import urllib.request

        from repro.obs import parse_openmetrics

        cfg = self.write_config(tmp_path)
        # Capture the bound URL from the printed banner via a pipe-less
        # trick: run main in a thread with --hold, scrape, then join.
        import contextlib
        import io

        banner = io.StringIO()
        codes = []

        def run_cli():
            with contextlib.redirect_stdout(banner):
                codes.append(main(["monitor", str(cfg), "--port", "0",
                                   "--hold", "3"]))

        thread = threading.Thread(target=run_cli)
        thread.start()
        try:
            url = None
            for _ in range(100):
                m = re.search(r"http://127\.0\.0\.1:\d+", banner.getvalue())
                if m and "holding" in banner.getvalue():
                    url = m.group(0)
                    break
                time.sleep(0.05)
            assert url, f"monitor never reached hold: {banner.getvalue()!r}"
            body = urllib.request.urlopen(url + "/metrics",
                                          timeout=5.0).read().decode()
            families = parse_openmetrics(body)
            assert families["campaign_cells_done"]["samples"] == [
                ("campaign_cells_done", {}, 2.0)]
            health = json.loads(urllib.request.urlopen(
                url + "/healthz", timeout=5.0).read())
            assert health["status"] == "ok"
        finally:
            thread.join(timeout=15.0)
        assert codes == [0]
