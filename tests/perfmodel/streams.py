"""Recorded event streams of every model the repo ships.

A *stream* is everything a bound PMDL model shows the rest of the system:
its node and link volumes, its parent, and every call its scheme walk
makes on a :class:`~repro.perfmodel.model.LinearActionVisitor` — the two
actions and the four structural hooks, in order.  The golden file
``golden/streams.json`` holds the streams of the three app models at
several bindings, the two ``examples/models`` and every fixture that
compiles and binds at its probe values; ``test_streams.py`` asserts the
current executor reproduces each one element for element.

Regenerate (only when a change is *meant* to move a stream)::

    PYTHONPATH=src python tests/perfmodel/streams.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

import numpy as np

from repro.perfmodel import compile_source, stub_externals
from repro.perfmodel.model import LinearActionVisitor
from repro.perfmodel.netcheck import probe_bindings
from repro.util.errors import PMDLError

HERE = Path(__file__).parent
ROOT = HERE.parents[1]
GOLDEN = HERE / "golden" / "streams.json"


#: A walk making more visitor calls than this is recorded as a runaway:
#: how far a non-terminating scheme gets before the executor stops it is
#: not part of the stream.
MAX_CALLS = 100_000


class Runaway(Exception):
    """The walk made more than :data:`MAX_CALLS` visitor calls."""


class StreamRecorder(LinearActionVisitor):
    """Records every visitor call: ``[kind, *args]`` per call."""

    def __init__(self, max_calls: int = MAX_CALLS) -> None:
        self.events: list[list] = []
        self.max_calls = max_calls

    def _add(self, event: list) -> None:
        if len(self.events) >= self.max_calls:
            raise Runaway
        self.events.append(event)

    def compute(self, percent, proc):
        self._add(["C", percent, proc])

    def transfer(self, percent, src, dst):
        self._add(["T", percent, src, dst])

    def enter_par(self, line):
        self._add(["E", line])

    def next_par_branch(self, line):
        self._add(["B", line])

    def exit_par(self, line):
        self._add(["X", line])

    def at_line(self, line):
        self._add(["L", line])


def _app_cases() -> list[tuple[str, str, dict, dict]]:
    """(case id, PMDL source, externals, bind params) for the app models."""
    from repro.apps.em3d import generate_problem
    from repro.apps.em3d.model import EM3D_MODEL_SOURCE
    from repro.apps.jacobi.model import JACOBI_MODEL_SOURCE
    from repro.apps.matmul import (
        heterogeneous_distribution,
        make_get_processor,
        speed_grid,
    )
    from repro.apps.matmul.model import MM_MODEL_SOURCE
    from repro.cluster import PAPER_SPEEDS

    cases = []
    for p in (3, 5, 8):
        prob = generate_problem(p=p, total_nodes=3000 * p, seed=p,
                                boundary_fraction=0.3)
        cases.append((f"app:em3d:p{p}", EM3D_MODEL_SOURCE, {},
                      {"p": p, "k": 100, "d": prob.d.tolist(),
                       "dep": prob.dep.tolist()}))
    rng = np.random.default_rng(7)
    for p in (2, 5, 8):
        n = 240
        cuts = sorted(rng.choice(np.arange(8, n - 8), size=p - 1,
                                 replace=False).tolist())
        rows = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        cases.append((f"app:jacobi:p{p}", JACOBI_MODEL_SOURCE, {},
                      {"p": p, "k": 100, "N": n, "rows": rows}))
    for n, l, m in ((12, 6, 2), (18, 9, 3), (36, 9, 3)):
        grid = speed_grid(list(PAPER_SPEEDS), m, host_machine=0)
        dist = heterogeneous_distribution(n, l, grid)
        cases.append((f"app:mm:n{n}l{l}m{m}", MM_MODEL_SOURCE,
                      {"GetProcessor": make_get_processor()},
                      {"m": dist.m, "r": 8, "n": dist.n, "l": dist.l,
                       "w": list(dist.w), "h": dist.h4()}))
    for path in sorted((ROOT / "examples" / "models").glob("*.pmdl")):
        for p in (4, 7):
            cases.append((f"example:{path.stem}:p{p}", path.read_text(), {},
                          {"p": p, "v": [5 + 3 * i for i in range(p)]}))
    return cases


def record_bound(bound, max_calls: int = MAX_CALLS) -> dict[str, Any]:
    """The stream of one bound model (an ``error`` key ends a failed walk)."""
    out: dict[str, Any] = {"nproc": bound.nproc}
    try:
        out["node"] = bound.node_volumes().tolist()
        links = bound.link_volumes()
        out["link"] = [[int(s), int(d), float(links[s, d])]
                       for s, d in zip(*np.nonzero(links))]
        out["parent"] = bound.parent_index()
    except PMDLError as exc:
        out["error"] = type(exc).__name__
        return out
    recorder = StreamRecorder(max_calls)
    try:
        bound.walk_scheme(recorder)
    except Runaway:
        out["error"] = "runaway"
        return out
    except PMDLError as exc:
        out["error"] = type(exc).__name__
    out["events"] = recorder.events
    return out


def record_all() -> dict[str, Any]:
    """Every stream, keyed by case id."""
    streams: dict[str, Any] = {}
    for case, source, externals, params in _app_cases():
        model = next(iter(compile_source(source, externals).values()))
        streams[case] = record_bound(model.bind(**params))
    for path in sorted((HERE / "fixtures").glob("*.pmdl")):
        source = path.read_text()
        try:
            models = compile_source(source, stub_externals(source),
                                    analyze=False)
        except PMDLError:
            continue  # never compiles: nothing to walk
        for name, model in models.items():
            try:
                bound = model.bind(**probe_bindings(model))
            except PMDLError:
                continue  # does not bind at its probe values
            streams[f"fixture:{path.stem}:{name}"] = record_bound(bound)
    return streams


def main(argv: list[str]) -> int:
    streams = record_all()
    if "--write" in argv:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(streams, separators=(",", ":"),
                                     sort_keys=True) + "\n")
        print(f"wrote {len(streams)} streams to {GOLDEN}")
    else:
        for case, stream in streams.items():
            print(case, len(stream.get("events", ())), stream.get("error", ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
