"""The PMDL static analyzer.

Each fixture in ``fixtures/`` is a small, deliberately-defective model;
the test asserts the exact diagnostic code, severity, and line the
analyzer must produce for it.  The paper's models (EM3D, ParallelAxB) and
the Jacobi model must come out clean — no errors, no warnings.
"""

from pathlib import Path

import pytest

from repro.apps.em3d.model import EM3D_MODEL_SOURCE
from repro.apps.jacobi.model import JACOBI_MODEL_SOURCE
from repro.apps.matmul.model import MM_MODEL_SOURCE
from repro.perfmodel import check_source, compile_model, compile_source
from repro.perfmodel.diagnostics import Severity
from repro.util.errors import PMDLAnalysisError

FIXTURES = Path(__file__).parent / "fixtures"

ERROR = Severity.ERROR
WARNING = Severity.WARNING
INFO = Severity.INFO

#: fixture stem -> (code, severity, line) that MUST appear in the report.
EXPECTED = {
    "syntax_error": ("PM001", ERROR, 3),
    "struct_field": ("PM002", ERROR, 8),
    "oob_compute": ("PM010", ERROR, 5),
    "oob_transfer": ("PM011", ERROR, 6),
    "oob_transfer_unguarded": ("PM011", WARNING, 8),
    "oob_parent": ("PM012", ERROR, 4),
    "bad_extent": ("PM014", ERROR, 2),
    "self_transfer": ("PM020", ERROR, 7),
    "self_link": ("PM021", WARNING, 5),
    "dead_if": ("PM030", WARNING, 8),
    "zero_trip": ("PM031", WARNING, 7),
    "dead_rule": ("PM032", WARNING, 5),
    "nonterminating": ("PM033", ERROR, 5),
    "wrong_direction": ("PM033", ERROR, 6),
    "self_assign_step": ("PM033", ERROR, 8),
    "unused_param": ("PM040", WARNING, 1),
    "unused_coord": ("PM041", WARNING, 2),
    "unused_linkvar": ("PM042", WARNING, 4),
    "unused_scheme_var": ("PM043", INFO, 5),
    "div_zero": ("PM050", ERROR, 3),
    "recv_no_compute": ("PM060", WARNING, 11),
    "unexercised_link": ("PM061", WARNING, 5),
    "par_fanin": ("PM062", INFO, 10),
}


def _check_fixture(stem: str):
    source = (FIXTURES / f"{stem}.pmdl").read_text()
    return check_source(source, target=stem)


class TestSeededDefects:
    @pytest.mark.parametrize("stem", sorted(EXPECTED))
    def test_reports_expected_diagnostic(self, stem):
        code, severity, line = EXPECTED[stem]
        report = _check_fixture(stem)
        found = [(d.code, d.severity, d.line) for d in report.diagnostics]
        assert (code, severity, line) in found, (
            f"{stem}: expected {code}/{severity}/line {line}, got {found}")

    @pytest.mark.parametrize("stem", sorted(EXPECTED))
    def test_strict_exit_gates_on_severity(self, stem):
        # --strict fails on errors and warnings; infos never gate
        _, severity, _ = EXPECTED[stem]
        expected_exit = 1 if severity >= WARNING else 0
        assert _check_fixture(stem).exit_code(strict=True) == expected_exit

    def test_all_fixtures_have_expectations(self):
        # net_* fixtures exercise the PM08x net checks (test_net.py).
        stems = {p.stem for p in FIXTURES.glob("*.pmdl")
                 if not p.stem.startswith("net_")}
        assert stems == set(EXPECTED)


class TestPaperModelsAreClean:
    @pytest.mark.parametrize("name,source", [
        ("em3d", EM3D_MODEL_SOURCE),
        ("matmul", MM_MODEL_SOURCE),
        ("jacobi", JACOBI_MODEL_SOURCE),
    ])
    def test_no_errors_or_warnings(self, name, source):
        report = check_source(source, target=name)
        assert report.errors == [], report.render()
        assert report.warnings == [], report.render()

    def test_em3d_hotspot_info_only(self):
        # the fan-in the estimator prices sequentially is noted, not flagged
        report = check_source(EM3D_MODEL_SOURCE)
        assert report.codes() == ["PM062"]


class TestIntervalPrecision:
    """The analyzer must neither miss provable defects nor cry wolf."""

    def test_guarded_transfer_stays_silent(self):
        src = """
        algorithm Guarded(int p) {
          coord I=p;
          node {I>=0: bench*(1);};
          scheme {
            int i;
            for (i = 0; i < p; i++) {
              100%%[i];
              if (i < p - 1) 100%%[i]->[i+1];
            }
          };
        }
        """
        report = check_source(src)
        assert report.errors == [] and report.warnings == [], report.render()

    def test_symbolic_oob_proved_without_binding(self):
        src = """
        algorithm Sym(int p) {
          coord I=p;
          node {I>=0: bench*(1);};
          scheme { 100%%[p-1]; 100%%[p]; };
        }
        """
        report = check_source(src)
        # [p-1] is fine, [p] is proven out of range with p still unbound
        assert [d.code for d in report.errors] == ["PM010"]
        assert report.errors[0].line == 5

    def test_havocked_external_result_not_flagged(self):
        src = """
        typedef struct {int I;} Proc;
        algorithm Ext(int p) {
          coord I=p;
          node {I>=0: bench*(1);};
          scheme {
            Proc root;
            Where(p, &root);
            100%%[root.I];
          };
        }
        """
        report = check_source(src)
        assert report.errors == [], report.render()

    def test_always_true_rule_not_flagged(self):
        # the paper's idiom `I>=0:` matches every processor — deliberate
        report = check_source("""
        algorithm Idiom(int p) {
          coord I=p;
          node {I>=0: bench*(1);};
        }
        """)
        assert "PM032" not in report.codes()

    def test_division_by_symbolic_param_not_flagged(self):
        report = check_source("""
        algorithm Div(int p, int k) {
          coord I=p;
          node {I>=0: bench*(100/k);};
        }
        """)
        assert "PM050" not in report.codes()


class TestCompilerIntegration:
    def test_error_diagnostics_abort_compilation(self):
        src = (FIXTURES / "oob_compute.pmdl").read_text()
        with pytest.raises(PMDLAnalysisError) as exc_info:
            compile_model(src)
        diags = exc_info.value.diagnostics
        assert [d.code for d in diags] == ["PM010"]

    def test_analyze_false_skips_the_analyzer(self):
        src = (FIXTURES / "oob_compute.pmdl").read_text()
        model = compile_model(src, analyze=False)
        assert model.name == "OobCompute"

    def test_warnings_attach_to_model(self):
        src = (FIXTURES / "unused_param.pmdl").read_text()
        model = compile_model(src)
        assert [d.code for d in model.diagnostics] == ["PM040"]

    def test_clean_model_has_no_diagnostics(self):
        models = compile_source("""
        algorithm Clean(int p) {
          coord I=p;
          node {I>=0: bench*(1);};
        }
        """)
        assert models["Clean"].diagnostics == ()

    def test_analysis_error_is_semantic_error_subclass(self):
        from repro.util.errors import PMDLSemanticError
        src = (FIXTURES / "self_transfer.pmdl").read_text()
        with pytest.raises(PMDLSemanticError):
            compile_model(src)


class TestCheckSourceEdgeCases:
    def test_no_algorithm(self):
        report = check_source("typedef struct {int I;} P;")
        assert [d.code for d in report.diagnostics] == ["PM002"]

    def test_multiple_algorithms_all_checked(self):
        src = """
        algorithm A(int p) { coord I=p; node {I>=0: bench*(1);}; }
        algorithm B(int p, int q) { coord I=p; node {I>=0: bench*(1);}; }
        """
        report = check_source(src)
        assert report.codes() == ["PM040"]  # B's unused q

    def test_unknown_externals_assumed_declared(self):
        report = check_source("""
        algorithm Ext(int p) {
          coord I=p;
          node {I>=0: bench*(1);};
          scheme { Helper(p); 100%%[0]; };
        }
        """)
        assert report.errors == [], report.render()


def _model(volume: str = "1", scheme: str = "") -> str:
    return (f"algorithm A(int p) {{ coord I=p; node {{ I>=0: bench*({volume}); }};"
            f" parent[0]; scheme {{ {scheme} }}; }}")


class TestFrontEndBounds:
    """Hostile nesting and literals are a PM001, never an escaped exception."""

    HOSTILE = {
        "nested parens": _model("(" * 3000 + "1" + ")" * 3000),
        "nested blocks": _model(scheme="{" * 3000 + "}" * 3000),
        "5000-digit literal": _model("1" * 5000),
        # no parser recursion at all: the depth is in the tree it builds
        "left-deep operator chain": _model("+".join(["1"] * 3000)),
        "postfix chain": _model(scheme="int a; a" + "[0]" * 3000 + ";"),
        "if chain": _model(scheme="if (1) " * 3000 + ";"),
    }

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_check_source_reports_pm001(self, name):
        report = check_source(self.HOSTILE[name])
        assert report.codes() == ["PM001"], report.render()

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_compile_source_raises_syntax_error(self, name):
        from repro.util.errors import PMDLSyntaxError
        with pytest.raises(PMDLSyntaxError, match="nesting exceeds|literal longer"):
            compile_source(self.HOSTILE[name])

    def test_a_model_at_the_bound_survives_every_later_pass(self):
        # The bound exists for the passes *after* the parser; a chain just
        # inside it must check (net included), compile, bind and evaluate.
        from repro.perfmodel.parser import MAX_NESTING
        src = _model("+".join(["1"] * (MAX_NESTING - 10)))
        assert check_source(src, net=True).errors == []
        bound = compile_model(src).bind(p=3)
        assert bound.node_volumes().tolist() == [MAX_NESTING - 10] * 3
