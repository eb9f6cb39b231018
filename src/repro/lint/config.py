"""Configuration of the model linter.

:class:`LintConfig` carries the analysis parameters the probabilistic
rules compare against (horizon, cutoff) and the per-rule policy: codes
can be disabled outright and their severities overridden — the same
shape every mainstream linter exposes.  The rule thresholds are module
constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.ctmc.transient import check_horizon
from repro.lint.diagnostic import Severity

__all__ = ["LintConfig"]

#: Worst-case event probability above which the rare-event sum of
#: Section IV starts to degrade (SD201, SD505).
RARE_EVENT_THRESHOLD = 0.1
#: ``max exit rate × horizon`` above which a chain is flagged as stiff;
#: uniformization cost grows linearly with it (SD206).
STIFFNESS_THRESHOLD = 1e4
#: ``max exit rate × horizon`` below which a chain effectively never
#: moves within the mission (SD208).
NEGLIGIBLE_EXPOSURE = 1e-9
#: Cap of the combinatorial cutset-count estimate of the classification
#: preview (SD401).
MCS_ESTIMATE_CAP = 1_000_000
#: Node budget of the BDD compilations behind the semantic rules
#: (SD5xx); on overrun those rules silently skip (lint must never
#: raise) while the shape rules still run.
SEM_NODE_BUDGET = 200_000


@dataclass(frozen=True)
class LintConfig:
    """Knobs of one lint run.

    ``horizon`` and ``cutoff`` mirror the analysis that will follow so
    the probabilistic rules judge the model against the run it is about
    to get (``sdft lint --horizon --cutoff`` and
    :class:`~repro.core.analyzer.AnalysisOptions` feed them through).

    ``disabled`` names codes to skip; ``severity_overrides`` maps codes
    to replacement severities (e.g. promote ``SD201`` to an error for a
    strict CI gate).
    """

    horizon: float = 24.0
    cutoff: float = 1e-15
    disabled: frozenset[str] = frozenset()
    severity_overrides: Mapping[str, Severity] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_horizon(self.horizon)
        if self.cutoff < 0.0:
            raise ValueError(f"cutoff must be non-negative, got {self.cutoff}")

    def is_enabled(self, code: str) -> bool:
        """Whether the rule with this code should run."""
        return code not in self.disabled

    def severity_for(self, code: str, default: Severity) -> Severity:
        """The effective severity of ``code`` under the overrides."""
        return self.severity_overrides.get(code, default)
