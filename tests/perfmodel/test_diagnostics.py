"""The coded-diagnostics framework."""

import json

import pytest

from repro.perfmodel.diagnostics import (
    RULES,
    Diagnostic,
    DiagnosticReport,
    Severity,
    register_rule,
    rule,
)


class TestSeverity:
    def test_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR

    def test_str(self):
        assert str(Severity.ERROR) == "error"
        assert str(Severity.WARNING) == "warning"

    def test_parse_roundtrip(self):
        for s in Severity:
            assert Severity.parse(str(s)) is s

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            Severity.parse("fatal")


class TestRuleRegistry:
    def test_analyzer_rules_registered(self):
        import repro.perfmodel.analyze  # noqa: F401 — registers PM0xx
        import repro.perfmodel.netcheck  # noqa: F401 — registers PM08x
        for code in ["PM001", "PM010", "PM020", "PM030", "PM040", "PM050",
                     "PM060", "PM061", "PM062", "PM080", "PM082"]:
            assert code in RULES
            assert rule(code).code == code
        # the retired consistency-linter codes are PM082 findings now
        assert not [code for code in RULES if code.startswith("PM07")]

    def test_duplicate_code_rejected(self):
        import repro.perfmodel.analyze  # noqa: F401
        with pytest.raises(ValueError):
            register_rule("PM010", "dup", Severity.ERROR, "duplicate")

    def test_rule_at_builds_diagnostic(self):
        import repro.perfmodel.analyze  # noqa: F401
        r = rule("PM010")
        d = r.at(7, "out of range")
        assert d.code == "PM010"
        assert d.line == 7
        assert d.severity is Severity.ERROR
        assert d.rule == r.slug

    def test_severity_override(self):
        import repro.perfmodel.analyze  # noqa: F401
        d = rule("PM011").at(3, "might escape", severity=Severity.WARNING)
        assert d.severity is Severity.WARNING


class TestDiagnosticReport:
    def _report(self):
        rep = DiagnosticReport(target="m.pmdl")
        rep.add(Diagnostic("PM040", Severity.WARNING, 9, "unused"))
        rep.add(Diagnostic("PM010", Severity.ERROR, 4, "oob"))
        rep.add(Diagnostic("PM062", Severity.INFO, 2, "hotspot"))
        return rep

    def test_severity_views(self):
        rep = self._report()
        assert [d.code for d in rep.errors] == ["PM010"]
        assert [d.code for d in rep.warnings] == ["PM040"]
        assert [d.code for d in rep.infos] == ["PM062"]
        assert not rep.ok

    def test_sort_orders_by_line(self):
        rep = self._report()
        rep.sort()
        assert [d.line for d in rep.diagnostics] == [2, 4, 9]

    def test_exit_code_gating(self):
        rep = self._report()
        assert rep.exit_code() == 1
        warn_only = DiagnosticReport()
        warn_only.add(Diagnostic("PM040", Severity.WARNING, 1, "unused"))
        assert warn_only.exit_code() == 0
        assert warn_only.exit_code(strict=True) == 1
        assert DiagnosticReport().exit_code(strict=True) == 0

    def test_render_mentions_code_and_line(self):
        text = self._report().render()
        assert "m.pmdl" in text
        assert "line 4: error PM010: oob" in text

    def test_json_roundtrip(self):
        blob = json.loads(self._report().to_json())
        assert blob["target"] == "m.pmdl"
        assert blob["errors"] == 1
        codes = {d["code"] for d in blob["diagnostics"]}
        assert codes == {"PM010", "PM040", "PM062"}

    def test_hint_rendered(self):
        d = Diagnostic("PM062", Severity.INFO, 1, "hotspot", hint="see docs")
        assert "(see docs)" in d.render()
        assert d.to_dict()["hint"] == "see docs"
