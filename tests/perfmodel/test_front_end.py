"""The single PMDL front end: one pipeline, total on hostile text.

``compile_source`` and ``check_source`` are two consumers of one driver
(:func:`repro.perfmodel.compiler._front_end`), so over every model the
repo ships — the three app models, ``examples/models`` and the defect
fixtures — they must agree finding for finding; and over token-level
mutations of those sources neither may let anything but a coded
diagnostic / a :class:`PMDLError` out.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.em3d.model import EM3D_MODEL_SOURCE
from repro.apps.jacobi.model import JACOBI_MODEL_SOURCE
from repro.apps.matmul.model import MM_MODEL_SOURCE
from repro.perfmodel import (
    check_source,
    compile_source,
    stub_externals,
    tokenize,
)
from repro.perfmodel.diagnostics import Severity
from repro.util.errors import (
    PMDLAnalysisError,
    PMDLError,
    PMDLSemanticError,
    PMDLSyntaxError,
)

ROOT = Path(__file__).parents[2]

SOURCES = {
    "app:em3d": EM3D_MODEL_SOURCE,
    "app:matmul": MM_MODEL_SOURCE,
    "app:jacobi": JACOBI_MODEL_SOURCE,
    **{f"example:{p.stem}": p.read_text()
       for p in sorted((ROOT / "examples" / "models").glob("*.pmdl"))},
    **{f"fixture:{p.stem}": p.read_text()
       for p in sorted((Path(__file__).parent / "fixtures").glob("*.pmdl"))},
}


def _key(diag):
    return diag.code, diag.line, diag.message


class TestOnePipeline:
    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_compile_raises_iff_check_reports_an_error(self, name):
        source = SOURCES[name]
        report = check_source(source)
        try:
            models = compile_source(source, stub_externals(source))
        except PMDLError as exc:
            raised = exc
        else:
            raised = None

        if raised is None:
            assert report.errors == [], report.render()
            attached = [d for m in models.values() for d in m.diagnostics]
            assert sorted(map(_key, attached)) == sorted(
                map(_key, report.diagnostics))
            return

        # compile_source stops at the first failing definition; these
        # sources have one, so its findings are all of the report's errors.
        errors = report.errors
        assert errors, f"{name}: raised {raised!r} but the report is clean"
        if isinstance(raised, PMDLSyntaxError):
            assert [_key(d) for d in errors] == [
                ("PM001", raised.line, str(raised))]
        elif isinstance(raised, PMDLAnalysisError):
            assert sorted(map(_key, raised.diagnostics)) == sorted(
                map(_key, errors))
        else:
            assert isinstance(raised, PMDLSemanticError)
            assert {d.code for d in errors} == {"PM002"}
            for d in errors:
                assert (f"line {d.line}: {d.message}" in str(raised)
                        or d.message == str(raised))


def _untokenize(tokens) -> str:
    return " ".join(t.text for t in tokens)


class TestTotalOnMutants:
    @given(
        name=st.sampled_from(sorted(SOURCES)),
        kind=st.sampled_from(["delete", "duplicate", "swap", "replace"]),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_token_mutations_never_escape(self, name, kind, data):
        try:
            tokens = tokenize(SOURCES[name])[:-1]  # drop EOF
        except PMDLSyntaxError:
            return  # a fixture that does not even lex has no tokens to mutate
        i = data.draw(st.integers(0, len(tokens) - 1))
        j = data.draw(st.integers(0, len(tokens) - 1))
        if kind == "delete":
            del tokens[i]
        elif kind == "duplicate":
            tokens.insert(i, tokens[i])
        elif kind == "swap":
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens[i] = tokens[j]
        mutant = _untokenize(tokens)

        report = check_source(mutant)  # must not raise
        try:
            compile_source(mutant, stub_externals(mutant))
        except PMDLError:
            assert report.errors, mutant
        else:
            assert not any(d.severity >= Severity.ERROR
                           for d in report.diagnostics), mutant
