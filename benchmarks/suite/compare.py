#!/usr/bin/env python3
"""Compare two sets of suite runs under the bounds in BENCHMARK.json.

    python3 benchmarks/suite/compare.py A.json B.json

``A.json`` and ``B.json`` are ``run.py --runs N --json OUT`` documents
(A the parent, B the change; the same commit twice for an A/A check).
For every (workload, end-to-end metric) cell it prints one of

``ok``          B's median is no worse than A's by more than the bound
``regressed``   B's median is worse than A's by more than the bound
``unresolved``  the run-to-run spread of either set is wider than the
                bound, and not every run of B reads better than every
                run of A — the cell cannot be called unchanged

one row per workload.  Exit code 1 if any cell regressed, 2 if none
regressed but some are unresolved, 0 otherwise.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

from harness import load_benchmark_json, spread


def verdict(a: list[float], b: list[float], better: str, bound: float):
    """(label, relative worsening of the median, widest spread)."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = sign * (med_b - med_a) / abs(med_a)
    wide = max(spread(a), spread(b))
    all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if worse > bound:
        label = "regressed"
    elif wide > bound and not all_better:
        label = "unresolved"
    else:
        label = "ok"
    return label, worse, wide


def values(doc: dict, workload: str, metric: str) -> list[float]:
    return [run["metrics"][metric]["value"]
            for run in doc["runs"].get(workload, ())]


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 64
    doc_a, doc_b = (json.loads(pathlib.Path(p).read_text())
                    for p in argv[1:])
    metrics = load_benchmark_json()["end_to_end"]
    labels = []
    print(f"{'workload':20s}" + "".join(f"{m['name']:>26s}" for m in metrics))
    for workload in doc_a["runs"]:
        cells = []
        for m in metrics:
            a = values(doc_a, workload, m["name"])
            b = values(doc_b, workload, m["name"])
            if not a or not b:
                label, text = "unresolved", "no runs"
            else:
                label, worse, wide = verdict(a, b, m["better"], m["bound"])
                text = f"{label} {worse:+.1%} ±{wide:.1%}"
            labels.append(label)
            cells.append(f"{text:>26s}")
        print(f"{workload:20s}" + "".join(cells))
    print("bounds: " + ", ".join(f"{m['name']} {m['bound']:.0%}"
                                 for m in metrics)
          + "  (cell: verdict, change of median where + is worse, "
            "widest inter-quartile spread)")
    if "regressed" in labels:
        return 1
    return 2 if "unresolved" in labels else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
