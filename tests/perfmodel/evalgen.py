"""Run PMDL expressions and scheme fragments through the generated executor.

The models are built straight from the parser's output, without the
semantic checker, so a test can reach the run-time errors (undefined
names, bad targets) the checker would refuse earlier.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.perfmodel.model import LinearActionVisitor, PerformanceModel
from repro.perfmodel.parser import parse


class Recorder(LinearActionVisitor):
    """Records actions as ``("C", percent, proc)`` / ``("T", percent, src, dst)``."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def compute(self, percent, proc):
        self.events.append(("C", percent, proc))

    def transfer(self, percent, src, dst):
        self.events.append(("T", percent, src, dst))


def _decl(name: str, value: Any) -> str:
    if isinstance(value, (float, np.floating)):
        return f"double {name}"
    if isinstance(value, (list, tuple, np.ndarray)):
        arr = np.asarray(value)
        kind = "double" if arr.dtype.kind == "f" else "int"
        return kind + f" {name}" + "".join(f"[{n}]" for n in arr.shape)
    return f"int {name}"


def model(scheme: str, params: dict[str, Any] | None = None,
          externals: dict | None = None, structs_src: str = "",
          p: int = 3) -> tuple[PerformanceModel, dict[str, Any]]:
    """An unchecked one-coordinate model (``coord I=p``) around ``scheme``."""
    params = dict(params or {})
    decls = "".join(f", {_decl(n, v)}" for n, v in params.items())
    source = f"""
    {structs_src}
    algorithm A(int p{decls}) {{
      coord I=p;
      node {{I>=0: bench*(1);}};
      scheme {{ {scheme} }};
    }}
    """
    items = parse(source)
    alg = items[-1]
    structs = {s.name: s for s in items[:-1]}
    params["p"] = p
    return PerformanceModel(alg, structs, externals or {}), params


def run_scheme(scheme: str, params: dict[str, Any] | None = None,
               externals: dict | None = None, structs_src: str = "",
               p: int = 3) -> list[tuple]:
    """The action stream of ``scheme`` (processor = the coordinate)."""
    pm, values = model(scheme, params, externals, structs_src, p)
    recorder = Recorder()
    pm.bind(**values).walk_scheme(recorder)
    return recorder.events


def ev(src: str, params: dict[str, Any] | None = None,
       externals: dict | None = None, structs_src: str = "",
       decls: str = "") -> Any:
    """The value of PMDL expression ``src`` as generated code computes it."""
    seen: list = []
    run_scheme(f"{decls} Capture({src});", params,
               {"Capture": seen.append, **(externals or {})}, structs_src)
    return seen[0]
