"""Expression/statement semantics of the generated executor."""

import gc
import weakref

import numpy as np
import pytest

from repro.perfmodel import ast, compile_model
from repro.perfmodel.interp import Ref, StructValue
from repro.perfmodel.model import PerformanceModel
from repro.util.errors import PMDLRuntimeError

from .evalgen import Recorder, ev, model, run_scheme


class TestArithmetic:
    def test_basics(self):
        assert ev("1 + 2 * 3") == 7
        assert ev("(1 + 2) * 3") == 9
        assert ev("10 - 4 - 3") == 3

    def test_exact_int_division_stays_int(self):
        v = ev("12 / 4")
        assert v == 3 and isinstance(v, int)

    def test_inexact_int_division_promotes(self):
        assert ev("100 / 54") == pytest.approx(100 / 54)

    def test_float_division(self):
        assert ev("5.0 / 2") == 2.5

    def test_division_by_zero(self):
        with pytest.raises(PMDLRuntimeError):
            ev("1 / 0")

    def test_c_modulo(self):
        assert ev("7 % 3") == 1
        assert ev("-7 % 3") == -1  # C: sign of dividend

    def test_modulo_requires_ints(self):
        with pytest.raises(PMDLRuntimeError):
            ev("7.5 % 2")

    def test_unary(self):
        assert ev("-5") == -5
        assert ev("!0") == 1
        assert ev("!7") == 0


class TestComparisonsAndLogic:
    def test_comparisons_yield_ints(self):
        for src, want in (("3 > 2", 1), ("3 < 2", 0), ("2 >= 2", 1),
                          ("1 != 2", 1), ("0 || 2", 1), ("2 && 3", 1)):
            v = ev(src)
            assert v == want and type(v) is int, src

    def test_short_circuit_and(self):
        # RHS would divide by zero; short circuit must skip it.
        assert ev("0 && (1 / 0)") == 0

    def test_short_circuit_or(self):
        assert ev("1 || (1 / 0)") == 1

    def test_ternary(self):
        assert ev("1 ? 10 : 20") == 10
        assert ev("0 ? 10 : 20") == 20


class TestNamesAndIndexing:
    def test_lookup(self):
        assert ev("x + 1", {"x": 5}) == 6

    def test_undefined(self):
        with pytest.raises(PMDLRuntimeError, match="undefined variable 'nope'"):
            ev("nope")

    def test_nested_indexing(self):
        assert ev("dep[1][0]", {"dep": np.array([[1, 2], [3, 4]])}) == 3

    def test_numpy_scalar_unwrapped_to_int(self):
        v = ev("d[1] / d[0]", {"d": np.array([10, 20])})
        assert v == 2 and isinstance(v, int)
        # a partial index of an array parameter is the array row itself
        row = ev("dep[1]", {"dep": np.array([[1, 2], [3, 4]])})
        assert isinstance(row, np.ndarray) and row.tolist() == [3, 4]

    def test_bad_index(self):
        with pytest.raises(PMDLRuntimeError, match=r"bad index 5 \(line"):
            ev("d[5]", {"d": [1, 2]})
        with pytest.raises(PMDLRuntimeError, match="bad index"):
            ev("d[1 / 2]", {"d": [1, 2]})  # a float index

    def test_sizeof(self):
        assert ev("sizeof(double)") == 8
        assert ev("3*sizeof(int)") == 12


class TestStructsAndRefs:
    STRUCT = "typedef struct {int I; int J;} P;"

    def test_member_access(self):
        def fill(root):
            root.set("I", 4)

        assert ev("Root.I", externals={"Fill": fill}, structs_src=self.STRUCT,
                  decls="P Root; Fill(&Root);") == 4

    def test_member_on_non_struct(self):
        with pytest.raises(PMDLRuntimeError, match="member access on non-struct"):
            ev("x.I", {"x": 3})

    def test_unknown_field(self):
        s = StructValue("P", ["I"])
        with pytest.raises(PMDLRuntimeError):
            s.get("Z")
        with pytest.raises(PMDLRuntimeError, match="no field 'Z'"):
            ev("Root.Z", structs_src=self.STRUCT, decls="P Root;")

    def test_ref_roundtrip(self):
        store = {"v": 1}
        ref = Ref(lambda: store["v"], lambda x: store.__setitem__("v", x))
        assert ref.get() == 1
        ref.set(9)
        assert store["v"] == 9


class TestSchemeExecution:
    def test_compute_action(self):
        assert run_scheme("100%%[0];") == [("C", 100.0, 0)]

    def test_transfer_action(self):
        assert run_scheme("25%%[0]->[2];") == [("T", 25.0, 0, 2)]

    def test_par_loop_emits_per_iteration(self):
        events = run_scheme("par (int i = 0; i < p; i++) 100%%[i];")
        assert events == [("C", 100.0, i) for i in range(3)]

    def test_for_loop_with_update_in_body(self):
        events = run_scheme(
            "par (int i = 0; i < p; ) { 100%%[i]; i += 2; }"
        )
        assert [e[2] for e in events] == [0, 2]

    def test_if_filters(self):
        events = run_scheme(
            "for (int i = 0; i < p; i++) if (i != 1) 100%%[i];"
        )
        assert [e[2] for e in events] == [0, 2]

    def test_postfix_increment_returns_old(self):
        events = run_scheme("int i = 1; 100%%[i++]; 100%%[i];")
        assert [e[2] for e in events] == [1, 2]
        assert ev("i--", decls="int i = 5;") == 5

    def test_external_call_with_struct_out_param(self):
        def SetCoords(value, root):
            root.set("I", value * 2)

        events = run_scheme(
            "P Root; SetCoords(1, &Root); 100%%[Root.I];",
            externals={"SetCoords": SetCoords},
            structs_src="typedef struct {int I;} P;",
        )
        assert events == [("C", 100.0, 2)]

    def test_scalar_ref_out_param(self):
        def Bump(ref):
            ref.set(ref.get() + 1)

        events = run_scheme(
            "int x = 1; Bump(&x); 100%%[x];",
            externals={"Bump": Bump},
        )
        assert events == [("C", 100.0, 2)]

    def test_while_loop(self):
        events = run_scheme("int i = 0; while (i < 2) { 100%%[i]; i++; }")
        assert len(events) == 2

    def test_infinite_loop_detected(self):
        with pytest.raises(PMDLRuntimeError, match="never terminates"):
            run_scheme("for (;;) ;")

    def test_variable_scoping_inner_blocks(self):
        events = run_scheme(
            "int i = 1; { int i = 2; 100%%[i]; } 100%%[i];"
        )
        assert [e[2] for e in events] == [2, 1]

    def test_compound_assignment(self):
        events = run_scheme("int x = 4; x *= 3; x /= 6; 100%%[x];")
        assert events[0][2] == 2


class TestGeneratedOnce:
    """A model's functions are generated once and shared by every bind."""

    def test_unknown_node_kind_raises_when_reached(self):
        class Mystery(ast.Expr):
            pass

        pm, values = model("int y = 0;")
        body = pm.algorithm.scheme.body
        # ...only when reached: the short-circuit never evaluates it.
        body.append(ast.ExprStmt(ast.Binary("&&", ast.IntLit(0),
                                            Mystery(line=7))))
        pm.bind(**values).walk_scheme(Recorder())
        pm, values = model("int y = 0;")
        pm.algorithm.scheme.body.append(ast.ExprStmt(Mystery(line=7)))
        with pytest.raises(PMDLRuntimeError,
                           match=r"cannot evaluate Mystery \(line 7\)"):
            pm.bind(**values).walk_scheme(Recorder())

        class Odd(ast.Stmt):
            pass

        pm, values = model("int y = 0;")
        pm.algorithm.scheme.body.append(Odd(line=9))
        bound = pm.bind(**values)  # generating the scheme does not raise
        with pytest.raises(PMDLRuntimeError, match=r"cannot execute Odd \(line 9\)"):
            bound.walk_scheme(Recorder())

    def test_same_model_same_code(self):
        pm, values = model("100%%[0];")
        first = pm.bind(**values)
        assert pm.bind(**values)._code is first._code is pm.code

    def test_register_external_after_first_evaluation(self):
        pm = compile_model("""
        algorithm A(int p) {
          coord I=p;
          node {I>=0: bench*(1);};
          scheme { int i; for (i = 0; i < p; i++) (Scale(i)*50)%%[i]; };
        }
        """, externals={"Scale": lambda i: 1})

        def percents():
            recorder = Recorder()
            pm.bind(2).walk_scheme(recorder)
            return [e[1] for e in recorder.events]

        assert percents() == [50.0, 50.0]
        pm.register_external("Scale", lambda i: 2)
        assert percents() == [100.0, 100.0]

    def test_binds_share_one_namespace(self):
        from repro.apps.matmul import (
            MM_MODEL_SOURCE,
            heterogeneous_distribution,
            make_get_processor,
            speed_grid,
        )

        pm = compile_model(MM_MODEL_SOURCE,
                           externals={"GetProcessor": make_get_processor()})
        dist = heterogeneous_distribution(
            12, 6, speed_grid([46.0, 46.0, 106.0, 176.0], 2, host_machine=0))

        def bind_and_walk():
            bound = pm.bind(dist.m, 2, dist.n, dist.l, list(dist.w), dist.h4())
            bound.node_volumes()
            bound.link_volumes()
            recorder = Recorder()
            bound.walk_scheme(recorder)
            return bound, recorder.events

        a, first = bind_and_walk()
        b, second = bind_and_walk()
        assert first and second == first
        assert a._code.scheme.__globals__ is b._code.scheme.__globals__
        assert a._code.namespace is pm.code.namespace

    def test_code_freed_with_its_model(self):
        pm, values = model("100%%[0];")
        pm.bind(**values).walk_scheme(Recorder())
        scheme = weakref.ref(pm.code.scheme)
        del pm
        gc.collect()
        assert scheme() is None

    def test_generation_is_lazy(self):
        pm, _ = model("100%%[0];")
        assert isinstance(pm, PerformanceModel) and pm._code is None
