"""Compiled performance models.

A :class:`PerformanceModel` is what the PMDL compiler produces from an
``algorithm`` definition — the "set of functions" the paper says make up
the algorithm-specific part of the HMPI runtime.  Binding it to concrete
parameter values yields a :class:`BoundModel` exposing exactly the four
features the paper enumerates:

1. the total number of abstract processors (``nproc``);
2. the computation volume of each processor, in benchmark units
   (``node_volumes``);
3. the communication volume between each ordered pair, in bytes
   (``link_volumes``);
4. the interaction order (``walk_scheme`` runs the ``scheme`` against a
   :class:`LinearActionVisitor` sink).

All four run the functions :mod:`repro.perfmodel.codegen` generates from
the algorithm, once per :class:`PerformanceModel`.  A Python-native
alternative (no DSL) implementing the same :class:`AbstractBoundModel`
interface lives in :mod:`repro.perfmodel.builder`; the HMPI estimator and
mapper work against the interface only.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from typing import Any

import numpy as np

from ..util.errors import PMDLRuntimeError, PMDLSemanticError
from . import ast
from .codegen import ModelCode, generate

__all__ = [
    "AbstractBoundModel",
    "BoundModel",
    "PerformanceModel",
    "LinearActionVisitor",
    "default_scheme_walk",
    "model_key",
]


def model_key(model: Any) -> str:
    """Stable report key for a performance model.

    A string passes through; otherwise the model's own ``name`` (a
    :class:`BoundModel` answers with its algorithm's, so all bindings of
    one algorithm share a key), falling back to the type name.
    """
    if isinstance(model, str):
        return model
    name = getattr(model, "name", None)
    if isinstance(name, str) and name:
        return name
    return type(model).__name__


class AbstractBoundModel(ABC):
    """What the HMPI runtime needs from any performance model."""

    @property
    @abstractmethod
    def nproc(self) -> int:
        """Total number of abstract processors executing the algorithm."""

    @abstractmethod
    def node_volumes(self) -> np.ndarray:
        """Per-processor computation volume in benchmark units, shape (nproc,)."""

    @abstractmethod
    def link_volumes(self) -> np.ndarray:
        """Pairwise communication volume in bytes, shape (nproc, nproc);
        entry [s, d] is the total sent from processor s to processor d."""

    @abstractmethod
    def parent_index(self) -> int:
        """Linear index of the parent processor."""

    @abstractmethod
    def walk_scheme(self, visitor: "LinearActionVisitor") -> None:
        """Replay the interaction order; falls back to a canonical
        one-round pattern when no scheme is given."""


class LinearActionVisitor:
    """Sink of a scheme walk: the actions over *linear* processor indices.

    Besides the two actions, a walk reports the scheme's *structure*
    through four optional hooks, all no-ops by default:
    ``enter_par``/``next_par_branch``/``exit_par`` bracket each dynamic
    ``par`` loop instance and its iterations (``for`` loops stay
    sequential and silent), and ``at_line`` fires just before each action
    with its source line.  The net lowering pass
    (:mod:`repro.perfmodel.net`) is their consumer; a walk skips the hooks
    a sink does not override.
    """

    def compute(self, percent: float, proc: int) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def transfer(self, percent: float, src: int, dst: int) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def enter_par(self, line: int) -> None:
        """A dynamic ``par`` loop instance begins (fork)."""

    def next_par_branch(self, line: int) -> None:
        """The next iteration (= parallel branch) of the current ``par``."""

    def exit_par(self, line: int) -> None:
        """The current ``par`` loop instance ends (join)."""

    def at_line(self, line: int) -> None:
        """The next action originates from this source line."""


_PAR_HOOKS = ("enter_par", "next_par_branch", "exit_par")


def _overrides(sink: Any, hook: str) -> bool:
    return getattr(type(sink), hook, None) is not getattr(LinearActionVisitor, hook)


def default_scheme_walk(model: AbstractBoundModel, visitor: LinearActionVisitor) -> None:
    """Canonical interaction for scheme-less models: all transfers in
    parallel, then all computations in parallel (the EM3D pattern)."""
    links = model.link_volumes()
    srcs, dsts = np.nonzero(links)
    visitor.enter_par(0)
    for s, d in zip(srcs.tolist(), dsts.tolist()):
        visitor.next_par_branch(0)
        visitor.transfer(100.0, s, d)
    visitor.exit_par(0)
    visitor.enter_par(0)
    for p in range(model.nproc):
        visitor.next_par_branch(0)
        visitor.compute(100.0, p)
    visitor.exit_par(0)


class BoundModel(AbstractBoundModel):
    """A DSL performance model bound to concrete parameter values.

    Every feature runs the model's generated functions
    (:mod:`repro.perfmodel.codegen`) over one packed argument tuple, built
    once here: the parameter values plus nested-list copies of the array
    parameters the generated code reads element by element.
    """

    def __init__(self, perf_model: "PerformanceModel", params: dict[str, Any]):
        self._pm = perf_model
        self.params = params
        self._code = code = perf_model.code
        self._args = code.pack(params)
        self._extents: tuple[int, ...] = code.extents(self._args)
        self._coord_names = [c.name for c in perf_model.algorithm.coords]
        self._node_volumes: np.ndarray | None = None
        self._link_volumes: np.ndarray | None = None

    @property
    def name(self) -> str:
        """The algorithm's name, shared by every binding of it."""
        return self._pm.name

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def nproc(self) -> int:
        n = 1
        for e in self._extents:
            n *= e
        return n

    @property
    def extents(self) -> tuple[int, ...]:
        return tuple(self._extents)

    @property
    def coord_names(self) -> tuple[str, ...]:
        return tuple(self._coord_names)

    def linear_index(self, coords: tuple[int, ...]) -> int:
        """Row-major linear index of a coordinate tuple."""
        if len(coords) != len(self._extents):
            raise PMDLRuntimeError(
                f"expected {len(self._extents)} coordinates, got {coords!r}"
            )
        idx = 0
        for c, e in zip(coords, self._extents):
            if not 0 <= c < e:
                raise PMDLRuntimeError(
                    f"coordinate {coords!r} out of range for extents "
                    f"{list(self._extents)}"
                )
            idx = idx * e + c
        return idx

    def coords_of(self, index: int) -> tuple[int, ...]:
        """Inverse of :meth:`linear_index`."""
        if not 0 <= index < self.nproc:
            raise PMDLRuntimeError(f"processor index {index} out of range")
        coords = []
        for e in reversed(self._extents):
            coords.append(index % e)
            index //= e
        return tuple(reversed(coords))

    # ------------------------------------------------------------------
    # the four model features
    # ------------------------------------------------------------------
    def node_volumes(self) -> np.ndarray:
        if self._node_volumes is None:
            self._node_volumes = np.array(
                self._code.node_volumes(self._args, self._extents), dtype=float)
        return self._node_volumes

    def link_volumes(self) -> np.ndarray:
        """Pairwise byte volumes.

        Each link rule *asserts* the volume for the (source, destination)
        pair it names: re-assertions from link-variable values the rule does
        not use overwrite with the same value rather than accumulating.
        Distinct rules (e.g. matrix A vs matrix B traffic) accumulate.
        """
        if self._link_volumes is None:
            code = self._code
            n = self.nproc
            link_extents = code.link_extents(self._args)
            for ext, lv in zip(link_extents, self._pm.algorithm.link_vars):
                if not isinstance(ext, int) or ext <= 0:
                    raise PMDLRuntimeError(
                        f"link variable {lv.name!r} extent must be a positive int"
                    )
            flat = [0.0] * (n * n)
            for rule in code.link_rules:
                for key, volume in rule(self._args, self._extents,
                                        link_extents, n).items():
                    flat[key] += volume
            self._link_volumes = np.array(flat, dtype=float).reshape(n, n)
        return self._link_volumes

    def parent_index(self) -> int:
        parent = self._code.parent
        if parent is None:
            return 0
        return self.linear_index(parent(self._args))

    def walk_scheme(self, visitor: LinearActionVisitor) -> None:
        scheme = self._code.scheme
        if scheme is None:
            default_scheme_walk(self, visitor)
            return
        scheme(self._args, self._extents, visitor.compute, visitor.transfer,
               any(_overrides(visitor, h) for h in _PAR_HOOKS),
               visitor.enter_par, visitor.next_par_branch, visitor.exit_par,
               _overrides(visitor, "at_line"), visitor.at_line)


class PerformanceModel:
    """A compiled ``algorithm`` definition plus its execution context.

    Equivalent to the handle the paper passes around as
    ``const HMPI_Model*`` — it encapsulates the generated functions
    (:attr:`code`), generated on first use and kept for the model's life.
    """

    def __init__(
        self,
        algorithm: ast.Algorithm,
        structs: dict[str, ast.StructDef] | None = None,
        externals: dict[str, Callable[..., Any]] | None = None,
        diagnostics: tuple = (),
    ):
        self.algorithm = algorithm
        self.structs = dict(structs or {})
        self.externals = dict(externals or {})
        #: Non-fatal analyzer findings (warnings/infos) from compilation.
        self.diagnostics = tuple(diagnostics)
        self._code: ModelCode | None = None

    @property
    def code(self) -> ModelCode:
        """The model's generated functions (generated on first use)."""
        if self._code is None:
            self._code = generate(self.algorithm, self.structs, self.externals)
        return self._code

    @property
    def name(self) -> str:
        return self.algorithm.name

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.algorithm.params)

    def register_external(self, name: str, fn: Callable[..., Any]) -> None:
        """Bind a Python callable invokable from the scheme (e.g. GetProcessor)."""
        self.externals[name] = fn

    def bind(self, *args: Any, **kwargs: Any) -> BoundModel:
        """Bind parameter values (positionally, by name, or mixed).

        Array parameters accept nested sequences or NumPy arrays; declared
        dimensions are validated against the scalar parameters they
        reference.
        """
        alg = self.algorithm
        params: dict[str, Any] = {}
        if len(args) > len(alg.params):
            raise PMDLSemanticError(
                f"{self.name} takes {len(alg.params)} parameters, got {len(args)}"
            )
        for p, value in zip(alg.params, args):
            params[p.name] = value
        for name, value in kwargs.items():
            if name not in self.param_names:
                raise PMDLSemanticError(f"{self.name} has no parameter {name!r}")
            if name in params:
                raise PMDLSemanticError(f"parameter {name!r} given twice")
            params[name] = value
        missing = [p.name for p in alg.params if p.name not in params]
        if missing:
            raise PMDLSemanticError(f"{self.name} missing parameters: {missing}")
        self._validate(params)
        return BoundModel(self, params)

    def _validate(self, params: dict[str, Any]) -> None:
        dims = self.code.dims
        env = dict(params)  # what dimension expressions read (and may write)
        for p in self.algorithm.params:
            value = params[p.name]
            if not p.dims:
                if isinstance(value, (bool, float)) and p.type_name == "int":
                    raise PMDLSemanticError(
                        f"parameter {p.name!r} must be an int, got {value!r}"
                    )
                continue
            arr = np.asarray(value)
            if arr.ndim != len(p.dims):
                raise PMDLSemanticError(
                    f"parameter {p.name!r} must have {len(p.dims)} dimensions, "
                    f"got {arr.ndim}"
                )
            for axis, expected in enumerate(dims[p.name](env)):
                if arr.shape[axis] != expected:
                    raise PMDLSemanticError(
                        f"parameter {p.name!r} axis {axis} must have length "
                        f"{expected}, got {arr.shape[axis]}"
                    )
            # Store as an ndarray so multi-dim indexing a[i][j] works and
            # element reads come back as Python scalars.
            params[p.name] = arr

    def __repr__(self) -> str:
        return f"PerformanceModel({self.name!r}, params={list(self.param_names)})"
