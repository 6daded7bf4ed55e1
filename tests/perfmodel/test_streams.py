"""The generated executor against recorded and reference streams.

``golden/streams.json`` was recorded by the closure interpreter the
generated code replaced (``streams.py`` says how); every stream must come
back element for element — volumes, parent, and every action and
structural hook, in order.  The same cases, plus models at the nesting
bound the parser allows, are also run against the reference interpreter
kept in ``reference.py``.
"""

import json
from functools import cache

import pytest

from repro.perfmodel import compile_source, stub_externals
from repro.perfmodel.netcheck import probe_bindings
from repro.util.errors import PMDLError

from . import streams
from .reference import ReferenceModel

GOLDEN = json.loads(streams.GOLDEN.read_text())


@cache
def current() -> dict:
    """Every stream as the current executor records it (JSON-normalised)."""
    return json.loads(json.dumps(streams.record_all()))


def _settled(stream: dict) -> dict:
    """A failed walk's stream up to the failure.

    The interpreter called ``exit_par`` for every open ``par`` while an
    error unwound; the generated code stops calling the sink at the error.
    """
    if "error" in stream and stream.get("events"):
        events = list(stream["events"])
        while events and events[-1][0] == "X":
            events.pop()
        stream = dict(stream, events=events)
    return stream


class TestGoldenStreams:
    def test_every_case_recorded(self):
        assert sorted(current()) == sorted(GOLDEN)

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_stream_matches(self, case):
        assert _settled(current()[case]) == _settled(GOLDEN[case])


def outcome(make) -> dict:
    """The stream of the model ``make()`` binds, or how binding failed."""
    try:
        bound = make()
    except PMDLError as exc:
        return {"bind_error": type(exc).__name__}
    return _settled(json.loads(json.dumps(streams.record_bound(bound))))


def assert_same(model, params) -> None:
    generated = outcome(lambda: model.bind(**params()))
    reference = outcome(lambda: ReferenceModel(model, params()))
    assert generated == reference


def _fixture_cases():
    for path in sorted((streams.HERE / "fixtures").glob("*.pmdl")):
        source = path.read_text()
        try:
            models = compile_source(source, stub_externals(source),
                                    analyze=False)
        except PMDLError:
            continue
        for name, model in models.items():
            yield pytest.param(model, id=f"{path.stem}:{name}")


class TestAgainstReference:
    @pytest.mark.parametrize("case", streams._app_cases(),
                             ids=lambda c: c[0] if isinstance(c, tuple) else "")
    def test_app_and_example_models(self, case):
        _, source, externals, params = case
        model = next(iter(compile_source(source, externals).values()))
        assert_same(model, lambda: dict(params))

    @pytest.mark.parametrize("model", _fixture_cases())
    def test_fixtures_at_probe_values(self, model):
        assert_same(model, lambda: probe_bindings(model))


def _nested(depth: int, opener: str, closer: str = "") -> str:
    return opener * depth + "100%%[0];" + closer * depth


NESTING_CASES = {
    "40 nested for": _nested(40, "for (int i = 0; i < 1; i++) "),
    "40 nested par": _nested(
        40, "par (int i = 0; i < 2 - p / 4; i++) "),
    "120 nested if": "int a = 1; " + _nested(120, "if (a) "),
    "120 nested blocks": "{" * 120 + "100%%[0];" + "}" * 120,
    "30 nested while": _nested(
        30, "int k = 0; while (k < 1) { k++; ", "} "),
    "deep expression": "100%%[" + "(" * 20 + "0" + " + 0)" * 20 + "];",
    "long chain": "int x = 0; x = " + " + ".join(["1"] * 120) + "; (x - 120)%%[0];",
    "deep ternary": "100%%[" + "p > 9 ? 1 : " * 40 + "0];",
}


class TestNestingBound:
    """Models at the parser's nesting bound compile, walk and match."""

    @pytest.mark.parametrize("name", sorted(NESTING_CASES))
    def test_compiles_walks_and_matches(self, name):
        source = f"""
        algorithm Deep(int p) {{
          coord I=p;
          node {{I>=0: bench*(1);}};
          scheme {{ {NESTING_CASES[name]} }};
        }}
        """
        model = compile_source(source, analyze=False)["Deep"]
        stream = outcome(lambda: model.bind(p=4))
        assert "error" not in stream, stream
        assert stream["events"]
        assert_same(model, lambda: {"p": 4})
