"""The lint driver: run every enabled rule over one shared context.

:func:`lint` is the programmatic entry point (``sdft lint`` calls it).  The
result is a :class:`LintReport` — an immutable, sorted collection of
diagnostics with rendering helpers for the CLI's text and JSON formats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.core.sdft import SdFaultTree, as_sdft
from repro.ft.tree import FaultTree
from repro.lint.config import LintConfig
from repro.lint.context import LintContext
from repro.lint.diagnostic import Diagnostic, Severity
from repro.lint.registry import all_rules

__all__ = ["LintReport", "lint"]


@dataclass(frozen=True)
class LintReport:
    """All diagnostics of one lint run, most severe first."""

    model: str
    diagnostics: tuple[Diagnostic, ...]

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        """Findings at error severity."""
        return self._at(Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        """Findings at warning severity."""
        return self._at(Severity.WARNING)

    @property
    def infos(self) -> tuple[Diagnostic, ...]:
        """Findings at info severity."""
        return self._at(Severity.INFO)

    @property
    def has_errors(self) -> bool:
        """Whether any finding is an error."""
        return bool(self.errors)

    @property
    def max_severity(self) -> Severity | None:
        """The most severe finding's severity, or ``None`` when clean."""
        if not self.diagnostics:
            return None
        return max(self.diagnostics, key=lambda d: d.severity.rank).severity

    def codes(self) -> tuple[str, ...]:
        """The distinct diagnostic codes present, sorted."""
        return tuple(sorted({d.code for d in self.diagnostics}))

    def at_or_above(self, severity: Severity) -> tuple[Diagnostic, ...]:
        """Findings at ``severity`` or worse."""
        return tuple(
            d for d in self.diagnostics if d.severity.rank >= severity.rank
        )

    def _at(self, severity: Severity) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is severity)

    def counts(self) -> dict[str, int]:
        """``{"error": n, "warning": n, "info": n}``."""
        return {
            Severity.ERROR.value: len(self.errors),
            Severity.WARNING.value: len(self.warnings),
            Severity.INFO.value: len(self.infos),
        }

    def summary_line(self) -> str:
        """One line: totals by severity (or a clean bill of health)."""
        if not self.diagnostics:
            return f"{self.model}: no diagnostics"
        parts = [
            f"{count} {name}{'s' if count != 1 else ''}"
            for name, count in self.counts().items()
            if count
        ]
        total = len(self.diagnostics)
        noun = "diagnostic" if total == 1 else "diagnostics"
        return f"{self.model}: {total} {noun} ({', '.join(parts)})"

    def render_text(self) -> str:
        """The full text report (summary line plus one block per finding)."""
        lines = [self.summary_line()]
        lines.extend(d.render() for d in self.diagnostics)
        return "\n".join(lines)

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable payload of the whole report."""
        return {
            "model": self.model,
            "counts": self.counts(),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self, indent: int | None = 2) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)


def lint(
    model: SdFaultTree | FaultTree, config: LintConfig | None = None
) -> LintReport:
    """Run every enabled rule over ``model`` and return the report.

    ``model`` may be an :class:`~repro.core.sdft.SdFaultTree` or a plain
    static :class:`~repro.ft.tree.FaultTree` (promoted to an SD tree
    with no dynamic events by :func:`~repro.core.sdft.as_sdft`).
    Nothing is analysed: no translation, no MOCUS, no cutset chains —
    only the per-event worst-case solves the probabilistic rules compare
    against the cutoff, and those are skipped per event if they fail.
    """
    sdft = as_sdft(model)
    cfg = config or LintConfig()
    context = LintContext(sdft, cfg)
    findings: list[Diagnostic] = []
    for rule in all_rules():
        if not cfg.is_enabled(rule.code):
            continue
        findings.extend(rule.run(context))
    findings.sort(key=Diagnostic.sort_key)
    return LintReport(model=sdft.name, diagnostics=tuple(findings))
