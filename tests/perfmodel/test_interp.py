"""Expression/statement evaluator semantics."""

import pytest

from repro.perfmodel import ast, compile_model
from repro.perfmodel.interp import (
    ActionVisitor,
    Environment,
    Interpreter,
    Ref,
    StructValue,
)
from repro.perfmodel.model import LinearActionVisitor
from repro.perfmodel.parser import parse, parse_expression
from repro.util.errors import PMDLRuntimeError


def ev(src, env=None, externals=None, structs=None):
    interp = Interpreter(structs or {}, externals or {})
    return interp.eval(parse_expression(src), env or Environment())


class RecordingVisitor(ActionVisitor):
    def __init__(self):
        self.events = []

    def compute(self, percent, coords):
        self.events.append(("C", percent, coords))

    def transfer(self, percent, src, dst):
        self.events.append(("T", percent, src, dst))


def run_scheme(body_src, params=None, externals=None, structs_src=""):
    src = f"""
    {structs_src}
    algorithm A(int p) {{
      coord I=p;
      node {{I>=0: bench*(1);}};
      scheme {{ {body_src} }};
    }}
    """
    items = parse(src)
    alg = items[-1]
    structs = {s.name: s for s in items[:-1]}
    interp = Interpreter(structs, externals or {})
    env = Environment(params or {"p": 3})
    visitor = RecordingVisitor()
    interp.exec_block(alg.scheme.body, env, visitor)
    return visitor.events


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
        assert ev("3 > 2") == 1
        assert ev("3 < 2") == 0
        assert ev("2 >= 2") == 1
        assert ev("1 != 2") == 1

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
        env = Environment({"x": 5})
        assert ev("x + 1", env) == 6

    def test_undefined(self):
        with pytest.raises(PMDLRuntimeError):
            ev("nope")

    def test_nested_indexing(self):
        import numpy as np

        env = Environment({"dep": np.array([[1, 2], [3, 4]])})
        assert ev("dep[1][0]", env) == 3

    def test_numpy_scalar_unwrapped_to_int(self):
        import numpy as np

        env = Environment({"d": np.array([10, 20])})
        v = ev("d[1] / d[0]", env)
        assert v == 2 and isinstance(v, int)

    def test_bad_index(self):
        env = Environment({"d": [1, 2]})
        with pytest.raises(PMDLRuntimeError):
            ev("d[5]", env)

    def test_sizeof(self):
        assert ev("sizeof(double)") == 8
        assert ev("3*sizeof(int)") == 12


class TestStructsAndRefs:
    def test_member_access(self):
        s = StructValue("P", ["I", "J"])
        s.set("I", 4)
        env = Environment({"Root": s})
        assert ev("Root.I", env) == 4

    def test_member_on_non_struct(self):
        env = Environment({"x": 3})
        with pytest.raises(PMDLRuntimeError):
            ev("x.I", env)

    def test_unknown_field(self):
        s = StructValue("P", ["I"])
        with pytest.raises(PMDLRuntimeError):
            s.get("Z")

    def test_ref_roundtrip(self):
        store = {"v": 1}
        ref = Ref(lambda: store["v"], lambda x: store.__setitem__("v", x))
        assert ref.get() == 1
        ref.set(9)
        assert store["v"] == 9


class TestSchemeExecution:
    def test_compute_action(self):
        events = run_scheme("100%%[0];")
        assert events == [("C", 100.0, (0,))]

    def test_transfer_action(self):
        events = run_scheme("25%%[0]->[2];")
        assert events == [("T", 25.0, (0,), (2,))]

    def test_par_loop_emits_per_iteration(self):
        events = run_scheme("par (int i = 0; i < p; i++) 100%%[i];")
        assert events == [("C", 100.0, (i,)) for i in range(3)]

    def test_for_loop_with_update_in_body(self):
        events = run_scheme(
            "par (int i = 0; i < p; ) { 100%%[i]; i += 2; }"
        )
        assert [e[2] for e in events] == [(0,), (2,)]

    def test_if_filters(self):
        events = run_scheme(
            "for (int i = 0; i < p; i++) if (i != 1) 100%%[i];"
        )
        assert [e[2] for e in events] == [(0,), (2,)]

    def test_postfix_increment_returns_old(self):
        events = run_scheme("int i = 5; 100%%[i++]; 100%%[i];")
        assert [e[2] for e in events] == [(5,), (6,)]

    def test_external_call_with_struct_out_param(self):
        def SetCoords(value, root):
            root.set("I", value * 2)

        events = run_scheme(
            "P Root; SetCoords(3, &Root); 100%%[Root.I];",
            externals={"SetCoords": SetCoords},
            structs_src="typedef struct {int I;} P;",
        )
        assert events == [("C", 100.0, (6,))]

    def test_scalar_ref_out_param(self):
        def Bump(ref):
            ref.set(ref.get() + 10)

        events = run_scheme(
            "int x = 1; Bump(&x); 100%%[x];",
            externals={"Bump": Bump},
        )
        assert events == [("C", 100.0, (11,))]

    def test_while_loop(self):
        events = run_scheme("int i = 0; while (i < 2) { 100%%[i]; i++; }")
        assert len(events) == 2

    def test_infinite_loop_detected(self):
        with pytest.raises(PMDLRuntimeError):
            run_scheme("for (;;) ;")

    def test_variable_scoping_inner_blocks(self):
        events = run_scheme(
            "int i = 1; { int i = 2; 100%%[i]; } 100%%[i];"
        )
        assert [e[2] for e in events] == [(2,), (1,)]

    def test_compound_assignment(self):
        events = run_scheme("int x = 4; x *= 3; 100%%[x];")
        assert events[0][2] == (12,)


class LinearRecorder(LinearActionVisitor):
    def __init__(self):
        self.events = []

    def compute(self, percent, proc):
        self.events.append(("C", percent, proc))

    def transfer(self, percent, src, dst):
        self.events.append(("T", percent, src, dst))


class TestLoweredOnce:
    """Nodes are lowered to closures once per interpreter/model."""

    def test_unknown_node_kind_raises_when_reached(self):
        class Mystery(ast.Expr):
            pass

        interp = Interpreter()
        with pytest.raises(PMDLRuntimeError,
                           match=r"cannot evaluate Mystery \(line 7\)"):
            interp.eval(Mystery(line=7), Environment())
        # ...and only when reached: the short-circuit never evaluates it.
        guarded = ast.Binary("&&", ast.IntLit(0), Mystery(line=7))
        assert interp.eval(guarded, Environment()) == 0
        with pytest.raises(PMDLRuntimeError, match="cannot execute Mystery"):
            interp.exec(Mystery(line=7), Environment(), RecordingVisitor())

    def test_same_node_same_closure(self):
        interp = Interpreter()
        expr = parse_expression("a*2 + (a > 1 ? a : -a)")
        assert interp.lower(expr) is interp.lower(expr)
        assert interp.eval(expr, Environment({"a": 3})) == 9
        assert interp.eval(expr, Environment({"a": -3})) == -3

    def test_register_external_after_first_evaluation(self):
        pm = compile_model("""
        algorithm A(int p) {
          coord I=p;
          node {I>=0: bench*(1);};
          scheme { int i; for (i = 0; i < p; i++) (Scale(i)*50)%%[i]; };
        }
        """, externals={"Scale": lambda i: 1})

        def percents():
            recorder = LinearRecorder()
            pm.bind(2).walk_scheme(recorder)
            return [e[1] for e in recorder.events]

        assert percents() == [50.0, 50.0]
        pm.register_external("Scale", lambda i: 2)
        assert percents() == [100.0, 100.0]

    def test_binds_share_the_lowered_closures(self):
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
            recorder = LinearRecorder()
            bound.walk_scheme(recorder)
            return recorder.events

        first = bind_and_walk()
        lowered = dict(pm.interpreter._lowered)
        assert first and lowered
        assert bind_and_walk() == first
        assert pm.interpreter._lowered == lowered
