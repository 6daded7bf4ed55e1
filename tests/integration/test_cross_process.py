"""Cross-process determinism: an answer does not depend on the interpreter.

Campaign results and served selections are functions of their inputs
alone — not of ``PYTHONHASHSEED`` (set and dict iteration order) nor of
which process computed them.  Two spawned interpreters with different
hash seeds must write byte-identical ``results.jsonl`` and return equal
served documents, and both must equal the in-process answer.  The
campaign exercises machine churn, so it exercises the selection cache.
"""

import json
import os
import pathlib
import subprocess
import sys

from repro.apps.jacobi import JACOBI_MODEL_SOURCE
from repro.campaign import load_config, run_campaign
from repro.serve import Executor, validate_request

ROOT = pathlib.Path(__file__).resolve().parents[2]
CONFIG = ROOT / "examples" / "campaigns" / "ci_smoke.json"
HASH_SEEDS = ("0", "12345")

JOB = {"op": "timeof", "model": JACOBI_MODEL_SOURCE,
       "params": {"p": 4, "k": 2, "N": 60, "rows": [20, 5, 15, 20]},
       "cluster": "paper"}
# timeof -> speeds update -> timeof (the last one rides the new epoch).
SEQUENCE = [JOB, {**JOB, "speeds": [9.0, 106.0, 176.0] * 3}, JOB]

SERVE_CHILD = """
import json, sys
from repro.serve import Executor, validate_request
ex = Executor()
print(json.dumps([ex.execute(validate_request(raw))
                  for raw in json.load(sys.stdin)]))
"""


def spawn(args, hash_seed):
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen([sys.executable, *args], env=env, cwd=ROOT,
                            stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def finish(proc, stdin=None):
    out, err = proc.communicate(stdin, timeout=120)
    assert proc.returncode == 0, err
    return out


def test_campaign_jsonl_is_byte_identical_across_processes(tmp_path):
    procs = [spawn(["-m", "repro", "campaign", "run", str(CONFIG), "--quiet",
                    "--out", str(tmp_path / seed)], seed)
             for seed in HASH_SEEDS]
    for proc in procs:
        finish(proc)
    run_campaign(load_config(CONFIG), tmp_path / "in-process")
    blobs = {name: (tmp_path / name / "results.jsonl").read_bytes()
             for name in (*HASH_SEEDS, "in-process")}
    assert blobs["0"] == blobs["12345"] == blobs["in-process"]


def test_served_sequence_is_equal_across_processes():
    stdin = json.dumps(SEQUENCE)
    procs = [spawn(["-c", SERVE_CHILD], seed)
             for seed in HASH_SEEDS]
    docs = [json.loads(finish(proc, stdin)) for proc in procs]
    ex = Executor()
    direct = [ex.execute(validate_request(dict(raw))) for raw in SEQUENCE]
    assert docs[0] == docs[1] == direct
    # The plain job after the update shares its epoch, hence its entry.
    assert [d["cache"] for d in direct] == ["miss", "miss", "hit"]
    epochs = [d["speed_epoch"] for d in direct]
    assert 0 == epochs[0] < epochs[1] == epochs[2]
