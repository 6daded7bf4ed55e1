"""Error handling in generated PMDL code: typed, naming the line, raised
only when the failing node is reached."""

import math
import time

import pytest

from repro.perfmodel.interp import STEP_BUDGET, StructValue
from repro.util.errors import PMDLRuntimeError

from .evalgen import ev, run_scheme
from .reference import Environment


def run(body, structs_src=""):
    run_scheme(body, structs_src=structs_src, p=2)


class TestExpressionErrors:
    def test_assignment_to_literal(self):
        with pytest.raises(PMDLRuntimeError,
                           match=r"invalid assignment target IntLit \(line"):
            ev("5 = 3")

    def test_assignment_to_undeclared(self):
        with pytest.raises(PMDLRuntimeError,
                           match="assignment to undeclared variable 'x'"):
            ev("x = 1")

    def test_call_unknown_external(self):
        with pytest.raises(PMDLRuntimeError,
                           match=r"unknown external function 'Magic' \(line"):
            ev("Magic(1)")

    def test_member_assignment_on_scalar(self):
        with pytest.raises(PMDLRuntimeError, match="non-struct"):
            ev("x.field = 1", {"x": 3})

    def test_index_on_scalar(self):
        with pytest.raises(PMDLRuntimeError, match=r"bad index 0 \(line"):
            ev("x[0]", {"x": 5})


class TestEnvironmentErrors:
    """The reference interpreter's scope chain (tests/perfmodel/reference.py)."""

    def test_pop_base_frame(self):
        env = Environment()
        with pytest.raises(PMDLRuntimeError):
            env.pop()

    def test_contains(self):
        env = Environment({"a": 1})
        assert "a" in env and "b" not in env


class TestStatementErrors:
    def test_struct_initializer_rejected(self):
        with pytest.raises(PMDLRuntimeError, match="initialisers"):
            run("P x = 0;", structs_src="typedef struct {int I;} P;")

    def test_while_runaway_detected(self):
        # A loop that never ends spends the walk's one step budget.
        start = time.perf_counter()
        with pytest.raises(PMDLRuntimeError,
                           match=rf"budget of {STEP_BUDGET} loop iterations \(line"):
            run("int i = 0; while (i < 1) i = 0;")
        assert time.perf_counter() - start < 1.0

    def test_budget_is_shared_by_every_loop(self):
        # n x n nested iterations exceed the budget although neither loop
        # alone comes near it; half of n in each loop stays inside it.
        n = math.isqrt(STEP_BUDGET) + 1
        nested = "int i, j; for (i = 0; i < {0}; i++) for (j = 0; j < {0}; j++) ;"
        with pytest.raises(PMDLRuntimeError, match="budget"):
            run(nested.format(n))
        run(nested.format(n // 2))


class TestStructRepr:
    def test_repr_shows_fields(self):
        s = StructValue("P", ["I", "J"])
        s.set("I", 7)
        assert "I=7" in repr(s)
