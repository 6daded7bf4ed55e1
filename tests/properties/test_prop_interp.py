"""Property-based tests of generated PMDL expression code against Python
reference semantics."""

from hypothesis import given
from hypothesis import strategies as st

from tests.perfmodel.evalgen import ev, run_scheme

small_ints = st.integers(-50, 50)
pos_ints = st.integers(1, 50)


class TestArithmeticAgainstPython:
    @given(small_ints, small_ints)
    def test_addition(self, a, b):
        assert ev(f"({a}) + ({b})") == a + b

    @given(small_ints, small_ints)
    def test_multiplication(self, a, b):
        assert ev(f"({a}) * ({b})") == a * b

    @given(small_ints, pos_ints)
    def test_division_value(self, a, b):
        got = ev(f"({a}) / ({b})")
        assert got == (a // b if a % b == 0 else a / b)

    @given(small_ints, pos_ints)
    def test_c_modulo_sign_of_dividend(self, a, b):
        got = ev(f"({a}) % ({b})")
        # C: (a/b)*b + a%b == a with trunc division
        q = abs(a) // b * (1 if a >= 0 else -1)
        assert q * b + got == a
        assert abs(got) < b

    @given(small_ints, small_ints)
    def test_comparisons(self, a, b):
        assert ev(f"({a}) < ({b})") == int(a < b)
        assert ev(f"({a}) == ({b})") == int(a == b)
        assert ev(f"({a}) >= ({b})") == int(a >= b)

    @given(small_ints)
    def test_unary_minus_involution(self, a):
        assert ev(f"-(-({a}))") == a


class TestExpressionStructure:
    @given(small_ints, small_ints, small_ints)
    def test_precedence_matches_python(self, a, b, c):
        assert ev(f"({a}) + ({b}) * ({c})") == a + b * c
        assert ev(f"(({a}) + ({b})) * ({c})") == (a + b) * c

    @given(small_ints, small_ints, small_ints)
    def test_ternary(self, cond, a, b):
        assert ev(f"({cond}) ? ({a}) : ({b})") == (a if cond else b)

    @given(st.booleans(), st.booleans())
    def test_logical_ops(self, x, y):
        a, b = int(x), int(y)
        assert ev(f"{a} && {b}") == int(x and y)
        assert ev(f"{a} || {b}") == int(x or y)


class TestEnvironment:
    @given(st.dictionaries(
        st.sampled_from(["a", "b", "c", "x"]),
        small_ints, min_size=1,
    ))
    def test_lookup_returns_bound_values(self, bindings):
        for name, value in bindings.items():
            assert ev(name, bindings) == value

    @given(small_ints)
    def test_scope_shadowing(self, v):
        seen = []
        run_scheme(f"int x = {v}; {{ int x = {v} + 1; Seen(x); }} Seen(x);",
                   externals={"Seen": seen.append})
        assert seen == [v + 1, v]
