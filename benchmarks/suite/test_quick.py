"""Smoke test of the benchmark suite itself (not collected by tier-1).

    python -m pytest benchmarks/suite/test_quick.py

Runs ``run.py --quick --trace`` — one small round of every workload,
untraced and traced, fourteen fresh subprocesses, about 25 s — and checks
that what comes out is what ``BENCHMARK.json`` declares.
"""

import json
import math
import pathlib
import re
import subprocess
import sys

import pytest

SUITE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((SUITE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite") / "quick.json"
    proc = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--quick", "--trace",
         "--json", str(out)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(out.read_text())


def test_declaration_is_within_the_contract():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def check_metrics(result, declared):
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


def test_every_declared_metric_is_emitted(quick):
    assert set(quick["runs"]) == {w["name"] for w in SPEC["workloads"]}
    assert set(quick["env"]) >= {"commit", "nproc", "python", "numpy"}
    for name in quick["runs"]:
        check_metrics(quick["runs"][name][0], SPEC["end_to_end"])
        check_metrics(quick["traced"][name], SPEC["per_layer"])


def test_end_to_end_metrics_are_never_zero(quick):
    for runs in quick["runs"].values():
        assert all(m["value"] > 0 for m in runs[0]["metrics"].values())


def test_chrome_traces_parse_with_spans_closed_and_parented(quick):
    for name in quick["traced"]:
        doc = json.loads((SUITE / "out" / f"trace-{name}.json").read_text())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert spans, name
        ids = {e["args"]["id"] for e in spans}
        layers = {e["cat"] for e in spans}
        assert len(ids) == len(spans)
        assert len(layers) >= 8  # the workload's layer plus every probe
        for e in spans:
            assert math.isfinite(e["dur"]) and e["dur"] >= 0, e["name"]
            assert e["args"]["parent"] is None or e["args"]["parent"] in ids
