"""Every entry point that takes a mission time rejects NaN, inf and t < 0.

A bare ``horizon < 0`` check lets NaN and inf through: the samplers then
report a probability near 1, the uniformization series runs for seconds
before its guard fires, and the linter compares NaN against its
thresholds.  All of them go through :func:`repro.ctmc.transient.check_horizon`
and raise the same message as :class:`~repro.core.analyzer.AnalysisOptions`.
"""

from __future__ import annotations

import math

import pytest

from repro.core.analyzer import AnalysisOptions, analyze_curve, analyze_exact
from repro.ctmc.builders import exponential_failure
from repro.ctmc.rare import estimate_failure_probability
from repro.ctmc.transient import (
    check_horizon,
    occupancy_integrals,
    transient_distribution,
)
from repro.lint import LintConfig

ENTRY_POINTS = {
    "check_horizon": lambda sdft, t: check_horizon(t),
    "transient_distribution": lambda sdft, t: transient_distribution(
        exponential_failure(0.1), t
    ),
    "occupancy_integrals": lambda sdft, t: occupancy_integrals(
        exponential_failure(0.1), t
    ),
    "rare-crude": lambda sdft, t: estimate_failure_probability(
        sdft, t, engine="crude", max_runs=10
    ),
    "lint_config": lambda sdft, t: LintConfig(horizon=t),
    "analysis_options": lambda sdft, t: AnalysisOptions(horizon=t),
    "analyze_curve": lambda sdft, t: analyze_curve(sdft, [24.0, t]),
    "analyze_exact": lambda sdft, t: analyze_exact(sdft, t),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize(
    "horizon", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"]
)
def test_entry_point_rejects_bad_horizon(cooling_sdft, entry, horizon):
    with pytest.raises(ValueError, match=r"horizon must be finite and >= 0"):
        ENTRY_POINTS[entry](cooling_sdft, horizon)

