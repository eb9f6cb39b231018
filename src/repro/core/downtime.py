"""Expected-downtime (unavailability) analysis of SD fault trees.

Reachability answers "did the system ever fail before ``t``"; repairable
systems also care *how long* the system was down — the expected time the
top event holds within the mission window.  This module computes it
with the same decomposition as the probability analysis:

* per cutset, the expected time during which *all* the cutset's events
  are simultaneously failed is the downtime integral of the cutset's
  ``FT_C`` chain (:func:`repro.ctmc.analysis.expected_downtime`) times
  the static factor;
* the rare-event sum over cutsets over-approximates the top downtime
  (every failed interval of the top event is covered by at least one
  cutset's simultaneous-failure interval, and overlaps double-count).

The exact counterpart :func:`exact_expected_downtime` integrates the
full product chain and serves as the oracle in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analyzer import AnalysisOptions, with_mocus_overrides
from repro.core.classify import classification_report
from repro.core.cutset_model import build_cutset_model
from repro.core.sdft import SdFaultTree
from repro.core.to_static import to_static
from repro.ctmc.analysis import expected_downtime
from repro.ctmc.product import build_product
from repro.ft.mocus import MocusOptions, mocus
from repro.perf.fingerprint import model_signature

__all__ = ["DowntimeResult", "analyze_expected_downtime", "exact_expected_downtime"]


@dataclass(frozen=True)
class DowntimeResult:
    """Expected downtime aggregated over the minimal cutsets.

    ``expected_downtime_hours`` is the rare-event sum; ``per_cutset``
    maps each cutset to its contribution.  ``unavailability`` is the
    time-average (downtime divided by the horizon).
    """

    expected_downtime_hours: float
    horizon: float
    per_cutset: dict[frozenset, float]

    @property
    def unavailability(self) -> float:
        """Mission-average probability of being down."""
        if self.horizon <= 0.0:
            return 0.0
        return self.expected_downtime_hours / self.horizon


def analyze_expected_downtime(
    sdft: SdFaultTree, options: AnalysisOptions | None = None
) -> DowntimeResult:
    """Per-cutset expected downtime of the top event.

    A static cutset is either down for the whole mission (all its events
    failed at time 0) or never, contributing ``prod p(a) * horizon``;
    a dynamic cutset contributes its chain's downtime integral.  The
    cutset list is the one :func:`~repro.core.analyzer.analyze`
    quantifies, ``mocus_probability_overrides`` included.
    """
    opts = options or AnalysisOptions()
    translation = to_static(sdft, opts.horizon)
    cutsets = mocus(
        with_mocus_overrides(translation.tree, opts),
        MocusOptions(cutoff=opts.cutoff, max_partials=opts.max_partials),
    ).cutsets
    classes = classification_report(sdft).by_gate

    contributions: dict[frozenset, float] = {}
    cache: dict[tuple, float] = {}
    for cutset in cutsets:
        model = build_cutset_model(sdft, cutset, classes)
        if model.trivially_zero:
            contributions[cutset] = 0.0
            continue
        if model.model is None:
            contributions[cutset] = model.static_factor * opts.horizon
            continue
        key = model_signature(model.model, opts.horizon)
        if key not in cache:
            product = build_product(model.model, max_states=opts.max_chain_states)
            cache[key] = expected_downtime(product.chain, opts.horizon)
        contributions[cutset] = cache[key] * model.static_factor
    total = sum(contributions.values())
    return DowntimeResult(total, opts.horizon, contributions)


def exact_expected_downtime(
    sdft: SdFaultTree, horizon: float, max_states: int = 200_000
) -> float:
    """Exact expected top-event downtime via the full product chain."""
    product = build_product(sdft, max_states=max_states)
    return expected_downtime(product.chain, horizon)
