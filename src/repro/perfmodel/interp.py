"""Runtime support for generated PMDL code.

:mod:`repro.perfmodel.codegen` turns each algorithm into Python source;
this module holds what that source calls at run time, and the values it
hands to external functions.

Semantics follow C where the paper's models rely on it:

- ``/`` on two integers keeps exact quotients as ints and promotes
  inexact ones (:func:`_c_div`); ``%`` is the C remainder (:func:`_c_mod`);
- ``&x`` passes the *lvalue* to an external function — struct values are
  mutable records passed directly (:class:`StructValue`), scalars are
  wrapped in a :class:`Ref` the callee can ``set``;
- every failure is a :class:`~repro.util.errors.PMDLRuntimeError` naming
  the PMDL line it comes from, raised only when the failing node is
  reached.

The helpers below are the slow, general paths the generated code falls
back to; the common cases (locals, struct fields, fully indexed array
parameters) are inlined by the generator.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any, NoReturn

from ..util.errors import PMDLRuntimeError

__all__ = ["StructValue", "Ref", "STEP_BUDGET"]

#: Loop iterations one scheme walk may run, summed over every ``for``,
#: ``par`` and ``while`` loop it enters.  The largest legitimate walk in
#: the repo (the matmul model at n = 36) runs 2 304; a walk that reaches
#: the budget is a runaway and raises a typed error in a fraction of a
#: second.
STEP_BUDGET = 250_000


class StructValue:
    """A mutable record instance of a ``typedef struct`` type."""

    __slots__ = ("type_name", "fields")

    def __init__(self, type_name: str, field_names: Sequence[str]):
        self.type_name = type_name
        self.fields: dict[str, Any] = {name: 0 for name in field_names}

    def get(self, name: str) -> Any:
        try:
            return self.fields[name]
        except KeyError:
            raise PMDLRuntimeError(
                f"struct {self.type_name!r} has no field {name!r}"
            ) from None

    def set(self, name: str, value: Any) -> None:
        if name not in self.fields:
            raise PMDLRuntimeError(
                f"struct {self.type_name!r} has no field {name!r}"
            )
        self.fields[name] = value

    def copy(self) -> "StructValue":
        clone = StructValue(self.type_name, self.fields.keys())
        clone.fields.update(self.fields)
        return clone

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"{self.type_name}({inner})"


class Ref:
    """A settable reference to a scalar variable (``&x`` on a non-struct)."""

    __slots__ = ("_get", "_set")

    def __init__(self, getter: Callable[[], Any], setter: Callable[[Any], None]):
        self._get = getter
        self._set = setter

    def get(self) -> Any:
        return self._get()

    def set(self, value: Any) -> None:
        self._set(value)


def _c_div(a: Any, b: Any) -> Any:
    """Division with exact-int preservation.

    int/int returns an int when the division is exact and a float
    otherwise.  This deliberately deviates from C's truncation: the paper's
    models use ``(n/l)`` where exact divisibility is the intended case, and
    percent expressions like ``(100/n)`` where C truncation would wreck the
    estimate (100/54 == 1 in C).  Real division keeps both correct and the
    estimator smooth across parameter sweeps.
    """
    if b == 0:
        raise PMDLRuntimeError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return q if r == 0 else a / b
    return a / b


def _c_mod(a: Any, b: Any) -> Any:
    """C remainder: trunc-toward-zero quotient, so sign follows the dividend."""
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise PMDLRuntimeError("integer modulo by zero")
        q = abs(a) // abs(b)
        if (a >= 0) != (b >= 0):
            q = -q
        return a - q * b
    raise PMDLRuntimeError("'%' requires integer operands")


# ----------------------------------------------------------------------
# helpers the generated code calls (bound into every generated module)
# ----------------------------------------------------------------------

#: The value of a variable a conditional declaration has not (yet) made.
UNSET = object()


def fail(message: str, *evaluated: Any) -> NoReturn:
    """Raise for a node that cannot run; ``evaluated`` are operands the
    node evaluates before failing (kept for their side effects)."""
    raise PMDLRuntimeError(message)


def undefined(name: str) -> NoReturn:
    raise PMDLRuntimeError(f"undefined variable {name!r}")


def undeclared(name: str) -> NoReturn:
    raise PMDLRuntimeError(f"assignment to undeclared variable {name!r}")


def lookup(env: dict[str, Any], name: str) -> Any:
    """A name read in dictionary scope (parameter dimensions)."""
    try:
        return env[name]
    except KeyError:
        undefined(name)


def assign(env: dict[str, Any], name: str, value: Any) -> Any:
    if name not in env:
        undeclared(name)
    env[name] = value
    return value


def index(base: Any, idx: Any, line: int) -> Any:
    """``base[idx]``; a NumPy scalar comes back as a Python scalar, so
    downstream C division sees ints."""
    try:
        value = base[idx]
    except (IndexError, KeyError, TypeError) as exc:
        raise PMDLRuntimeError(
            f"bad index {idx!r} (line {line}): {exc}"
        ) from None
    if hasattr(value, "item") and getattr(value, "ndim", None) == 0:
        return value.item()
    return value


# Fully indexed array parameters read a nested-list copy made once per
# bind.  Every index is a side-effect-free read, so evaluating them all
# first changes nothing; when the list read fails, the read is redone on
# the array itself, which produces exactly the value or error the array
# gives.
def index1(lst: Any, i: Any, arr: Any, lines: tuple) -> Any:
    try:
        return lst[i]
    except Exception:
        return index(arr, i, lines[0])


def index2(lst: Any, i: Any, j: Any, arr: Any, lines: tuple) -> Any:
    try:
        return lst[i][j]
    except Exception:
        return index(index(arr, i, lines[0]), j, lines[1])


def index3(lst: Any, i: Any, j: Any, k: Any, arr: Any, lines: tuple) -> Any:
    try:
        return lst[i][j][k]
    except Exception:
        return index(index(index(arr, i, lines[0]), j, lines[1]), k, lines[2])


def index4(lst: Any, i: Any, j: Any, k: Any, m: Any, arr: Any,
           lines: tuple) -> Any:
    try:
        return lst[i][j][k][m]
    except Exception:
        return index(index(index(index(arr, i, lines[0]), j, lines[1]),
                           k, lines[2]), m, lines[3])


def set_index(base: Any, idx: Any, value: Any, line: int) -> Any:
    try:
        base[idx] = value
    except (IndexError, KeyError, TypeError) as exc:
        raise PMDLRuntimeError(
            f"bad index assignment (line {line}): {exc}"
        ) from None
    return value


def member(base: Any, name: str, line: int) -> Any:
    if not isinstance(base, StructValue):
        raise PMDLRuntimeError(f"member access on non-struct value (line {line})")
    return base.get(name)


def set_member(base: Any, name: str, value: Any, line: int) -> Any:
    if not isinstance(base, StructValue):
        raise PMDLRuntimeError(
            f"member assignment on non-struct value (line {line})")
    base.set(name, value)
    return value


def address(value: Any, getter: Callable[[], Any],
            setter: Callable[[Any], None]) -> Any:
    """``&target``: a struct is passed as itself, anything else as a Ref."""
    if isinstance(value, StructValue):
        return value
    return Ref(getter, setter)


def callee(externals: dict[str, Callable[..., Any]], name: str,
           line: int) -> Callable[..., Any]:
    """The external ``name``, looked up when the call is reached."""
    fn = externals.get(name)
    if fn is None:
        raise PMDLRuntimeError(
            f"call to unknown external function {name!r} (line {line})")
    return fn


def extent(name: str, value: Any) -> Any:
    if not isinstance(value, int) or value <= 0:
        raise PMDLRuntimeError(
            f"coordinate {name!r} extent must be a positive int, "
            f"got {value!r}")
    return value


def linear(coords: tuple, extents: tuple, line: int) -> int:
    """Row-major linear index of ``coords``, range-checked."""
    if len(coords) != len(extents):
        raise PMDLRuntimeError(
            f"expected {len(extents)} coordinates, got {coords!r} "
            f"(line {line})")
    idx = 0
    for c, e in zip(coords, extents):
        if not 0 <= c < e:
            coord_error(coords, extents, line)
        idx = idx * e + c
    return idx


def coord_error(coords: tuple, extents: tuple, line: int) -> NoReturn:
    raise PMDLRuntimeError(
        f"coordinate {coords!r} out of range for extents {list(extents)} "
        f"(line {line})")


def coords_error(src: tuple, dst: tuple, extents: tuple, line: int) -> NoReturn:
    """The range error of a transfer: its source is checked first."""
    linear(src, extents, line)
    linear(dst, extents, line)
    raise AssertionError("coords_error called on in-range coordinates")


def par_step(steps: int, branch: Callable[[int], None], line: int) -> None:
    """A ``par`` iteration: over budget, or report the next branch."""
    if steps < 0:
        over_budget(line)
    branch(line)


def over_budget(line: int) -> NoReturn:
    raise PMDLRuntimeError(
        f"scheme exceeded its budget of {STEP_BUDGET} loop iterations "
        f"(line {line}): the walk does not terminate")


def no_exit(line: int) -> NoReturn:
    raise PMDLRuntimeError(
        f"loop with no condition and no update never terminates (line {line})")
