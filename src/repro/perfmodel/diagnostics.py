"""Coded diagnostics for PMDL tooling.

Every defect the static analyzer (:mod:`repro.perfmodel.analyze`) or the
net checker (:mod:`repro.perfmodel.netcheck`) can report is identified by
a stable ``PM0xx`` rule code, so tests, editors and CI can match on codes
rather than message text.  A :class:`Diagnostic` is one finding (code,
severity, source line, message); a :class:`DiagnosticReport` is the ordered
collection for one compilation unit, with human-readable rendering,
machine-readable JSON, and severity gating for CLI exit codes.

The rule catalogue is documented with triggering examples in
``docs/DIAGNOSTICS.md``.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

from . import ast

__all__ = [
    "Severity",
    "Rule",
    "Diagnostic",
    "DiagnosticReport",
    "RULES",
    "register_rule",
    "rule",
]


class Severity(enum.IntEnum):
    """Ordered severities; larger is worse (so ``max()`` gives the gate)."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(f"unknown severity {text!r}") from None


@dataclass(frozen=True)
class Rule:
    """A registered diagnostic rule with a stable code.

    ``severity`` is the default; individual diagnostics may override it
    (e.g. an out-of-range coordinate is an *error* when proven for every
    execution but a *warning* when only some values can escape the range).
    """

    code: str
    slug: str
    severity: Severity
    summary: str

    def at(
        self,
        where: ast.Node | int,
        message: str,
        severity: Severity | None = None,
        hint: str | None = None,
    ) -> "Diagnostic":
        """Build a diagnostic of this rule at an AST node (or raw line)."""
        line = where.line if isinstance(where, ast.Node) else int(where)
        return Diagnostic(
            code=self.code,
            severity=self.severity if severity is None else severity,
            line=line,
            message=message,
            rule=self.slug,
            hint=hint,
        )


#: The global rule registry, keyed by code (filled by analyze.py / netcheck.py).
RULES: dict[str, Rule] = {}


def register_rule(code: str, slug: str, severity: Severity, summary: str) -> Rule:
    """Register a rule code; codes are unique across the whole toolchain."""
    if code in RULES:
        raise ValueError(f"duplicate diagnostic rule code {code!r}")
    r = Rule(code, slug, severity, summary)
    RULES[code] = r
    return r


def rule(code: str) -> Rule:
    """Look up a registered rule by its ``PM0xx`` code."""
    return RULES[code]


@dataclass(frozen=True)
class Diagnostic:
    """One finding: stable code, severity, source line, and message."""

    code: str
    severity: Severity
    line: int
    message: str
    rule: str = ""
    hint: str | None = None

    def render(self) -> str:
        text = f"line {self.line}: {self.severity} {self.code}: {self.message}"
        if self.hint:
            text += f" ({self.hint})"
        return text

    def to_dict(self) -> dict:
        out = {
            "code": self.code,
            "severity": str(self.severity),
            "line": self.line,
            "message": self.message,
            "rule": self.rule,
        }
        if self.hint is not None:
            out["hint"] = self.hint
        return out


@dataclass
class DiagnosticReport:
    """All diagnostics for one compilation unit (file or source string)."""

    target: str = "<source>"
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def extend(self, diags) -> None:
        self.diagnostics.extend(diags)

    def sort(self) -> None:
        self.diagnostics.sort(key=lambda d: (d.line, d.code, d.message))

    # ------------------------------------------------------------------
    # severity views
    # ------------------------------------------------------------------
    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def infos(self) -> list[Diagnostic]:
        return self.by_severity(Severity.INFO)

    @property
    def ok(self) -> bool:
        """True when nothing error-level was found."""
        return not self.errors

    def codes(self) -> list[str]:
        return [d.code for d in self.diagnostics]

    def exit_code(self, strict: bool = False) -> int:
        """CLI gate: 1 on errors; under ``--strict`` also on warnings."""
        if self.errors:
            return 1
        if strict and self.warnings:
            return 1
        return 0

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def summary(self) -> str:
        return (f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
                f"{len(self.infos)} info(s)")

    def render(self) -> str:
        lines = [f"{self.target}: {self.summary()}"]
        lines.extend(f"  {d.render()}" for d in self.diagnostics)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "infos": len(self.infos),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def __str__(self) -> str:
        return self.render()
