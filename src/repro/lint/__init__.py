"""Static diagnostics for SD fault trees.

``repro.lint`` inspects an :class:`~repro.core.sdft.SdFaultTree` (or a
plain static :class:`~repro.ft.tree.FaultTree`) *without running any
analysis* and reports model smells as stable diagnostic codes:

* **SD1xx** structural — unreachable gates/events, pass-through and
  degenerate gates, vacuous or constant logic;
* **SD2xx** probabilistic — probabilities that undermine the rare-event
  approximation, cutoffs that silently empty the cutset list, stiff or
  inert chains;
* **SD3xx** dynamic — triggers that can never fire, events that stay
  switched off, trigger cascades;
* **SD4xx** classification preview — trigger gates headed for the
  general (expensive) quantification case, per Section V-A.

The one entry point is :func:`lint`::

    from repro import AnalysisOptions, analyze
    from repro.lint import lint, LintConfig

    report = lint(model, LintConfig(horizon=24.0, cutoff=1e-15))
    if not report.has_errors:
        result = analyze(model, AnalysisOptions(horizon=24.0, cutoff=1e-15))

The same engine backs ``sdft lint``, which exits 1 on error-level
findings, so ``sdft lint MODEL && sdft analyze MODEL`` is the shell
form of that gate.  See ``docs/linting.md`` for the full code catalogue.
"""

from repro.lint.config import LintConfig
from repro.lint.diagnostic import Diagnostic, Severity
from repro.lint.engine import LintReport, lint
from repro.lint.registry import Rule, all_rules, get_rule, rule

__all__ = [
    "Diagnostic",
    "LintConfig",
    "LintReport",
    "Rule",
    "Severity",
    "all_rules",
    "get_rule",
    "lint",
    "rule",
]
