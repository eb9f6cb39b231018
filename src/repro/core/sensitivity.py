"""Parameter sensitivity of SD fault-tree analyses.

Importance and uncertainty analyses (paper, concluding remark) ask how
the result moves when a parameter moves.  For static events the static
machinery answers exactly (:mod:`repro.ft.importance`); dynamic events
are parameterised by *rates*, so this module provides rate sensitivity
by finite differences:

* the perturbed model is re-analysed by
  :func:`~repro.core.analyzer.analyze` itself, reusing every base
  record :func:`~repro.core.analyzer.reusable_records` proves
  untouched — only the cutsets whose ``FT_C`` reads the perturbed
  event are re-quantified, exactly the cheap re-evaluation the
  decomposition enables, and the perturbed value is what a cold
  analysis of the perturbed model serves;
* the reported measure is the normalised elasticity
  ``(dP / P) / (dλ / λ)`` — how many percent the failure probability
  moves per percent of rate change — which is scale-free and comparable
  across events.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.analyzer import (
    AnalysisOptions,
    AnalysisReuse,
    analyze,
    derived_run_options,
    reusable_records,
    reuse_applies,
)
from repro.core.results import AnalysisResult
from repro.core.sdft import SdFaultTree
from repro.errors import UnknownNodeError

__all__ = ["RateSensitivity", "rate_sensitivity"]


@dataclass(frozen=True)
class RateSensitivity:
    """Finite-difference sensitivity of the failure probability.

    ``elasticity`` is ``(dP/P) / (dλ/λ)``; ``perturbed_probability`` is
    the failure probability :func:`~repro.core.analyzer.analyze` serves
    with the event's rates scaled by ``1 + relative_step``.
    """

    event: str
    base_probability: float
    perturbed_probability: float
    relative_step: float

    @property
    def elasticity(self) -> float:
        """Percent result change per percent rate change."""
        if self.base_probability <= 0.0:
            return 0.0
        relative_change = (
            self.perturbed_probability - self.base_probability
        ) / self.base_probability
        return relative_change / self.relative_step


def rate_sensitivity(
    sdft: SdFaultTree,
    result: AnalysisResult,
    event_name: str,
    relative_step: float = 0.05,
    options: AnalysisOptions | None = None,
) -> RateSensitivity:
    """Sensitivity of ``result`` to the rates of one dynamic event.

    Scales *all* transition rates of the event's chain by
    ``1 + relative_step`` (failure and repair alike — the chain is the
    parameter object; to study failure rates alone, build a perturbed
    chain explicitly and swap it in).  ``options`` are the options
    ``result`` was produced under, at ``result``'s horizon and cutoff;
    its per-run outputs are not forwarded (see
    :func:`~repro.core.analyzer.derived_run_options`).  MOCUS searches
    the perturbed model afresh; only the cutsets whose ``FT_C`` reads
    the event are re-quantified.
    """
    from repro.service.edits import ScaleRates, apply_edits

    if event_name not in sdft.dynamic_events:
        raise UnknownNodeError(
            f"{event_name!r} is not a dynamic basic event of the model"
        )
    opts = derived_run_options(
        replace(
            options or AnalysisOptions(), horizon=result.horizon, cutoff=result.cutoff
        )
    )
    perturbed = apply_edits(sdft, [ScaleRates(event_name, 1.0 + relative_step)])
    reuse = None
    if reuse_applies(opts):
        reuse = AnalysisReuse(
            records=reusable_records(perturbed, sdft, result.records)
        )
    perturbed_result = analyze(perturbed, opts, reuse=reuse)
    return RateSensitivity(
        event_name,
        result.failure_probability,
        perturbed_result.failure_probability,
        relative_step,
    )
