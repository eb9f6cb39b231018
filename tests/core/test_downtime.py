"""Tests of the expected-downtime (unavailability) analysis."""

import pytest

from repro.core.analyzer import AnalysisOptions
from repro.core.downtime import (
    analyze_expected_downtime,
    exact_expected_downtime,
)
from repro.core.sdft import SdFaultTreeBuilder
from repro.ctmc.builders import repairable


class TestAgainstExact:
    def test_over_approximates_exact(self, cooling_sdft):
        result = analyze_expected_downtime(
            cooling_sdft, AnalysisOptions(horizon=24.0)
        )
        exact = exact_expected_downtime(cooling_sdft, 24.0)
        assert result.expected_downtime_hours >= exact - 1e-12
        assert result.expected_downtime_hours <= 1.2 * exact + 1e-12

    def test_unavailability_fraction(self, cooling_sdft):
        result = analyze_expected_downtime(
            cooling_sdft, AnalysisOptions(horizon=24.0)
        )
        assert 0.0 <= result.unavailability <= 1.0
        assert result.unavailability == pytest.approx(
            result.expected_downtime_hours / 24.0
        )

    def test_per_cutset_contributions_sum(self, cooling_sdft):
        result = analyze_expected_downtime(
            cooling_sdft, AnalysisOptions(horizon=24.0)
        )
        assert sum(result.per_cutset.values()) == pytest.approx(
            result.expected_downtime_hours
        )
        assert frozenset({"e"}) in result.per_cutset

    def test_static_cutset_contribution(self, cooling_sdft):
        """A static cutset is down the whole mission when it fails at 0."""
        result = analyze_expected_downtime(
            cooling_sdft, AnalysisOptions(horizon=24.0)
        )
        assert result.per_cutset[frozenset({"e"})] == pytest.approx(3e-6 * 24.0)
        assert result.per_cutset[frozenset({"a", "c"})] == pytest.approx(9e-6 * 24.0)

    def test_mocus_overrides_shape_the_cutset_list(self, cooling_sdft):
        """The cutset list is the one ``analyze()`` quantifies: an override
        pushing ``e`` under the cutoff removes the cutset ``{e}``."""
        from repro.core.analyzer import analyze

        options = AnalysisOptions(
            horizon=24.0, cutoff=1e-7, mocus_probability_overrides={"e": 1e-9}
        )
        result = analyze_expected_downtime(cooling_sdft, options)
        analysed = analyze(cooling_sdft, options)
        assert frozenset({"e"}) not in result.per_cutset
        assert set(result.per_cutset) == {r.cutset for r in analysed.records}


class TestRepairEffect:
    def _pair(self, repair_rate: float):
        b = SdFaultTreeBuilder()
        b.dynamic_event("x", repairable(0.05, repair_rate))
        b.dynamic_event("y", repairable(0.05, repair_rate))
        b.and_("top", "x", "y")
        return b.build("top")

    def test_faster_repair_less_downtime(self):
        options = AnalysisOptions(horizon=100.0)
        slow = analyze_expected_downtime(self._pair(0.01), options)
        fast = analyze_expected_downtime(self._pair(2.0), options)
        assert fast.expected_downtime_hours < slow.expected_downtime_hours

    def test_downtime_below_reach_probability_times_horizon(self):
        """Downtime can never exceed (probability of ever failing) x t;
        with fast repair it is far below — the quantity reachability
        analysis cannot see."""
        from repro.core.analyzer import analyze

        sdft = self._pair(2.0)
        options = AnalysisOptions(horizon=100.0)
        downtime = analyze_expected_downtime(sdft, options)
        reach = analyze(sdft, options)
        assert (
            downtime.expected_downtime_hours
            < reach.failure_probability * 100.0
        )

    def test_zero_horizon(self, cooling_sdft):
        result = analyze_expected_downtime(
            cooling_sdft, AnalysisOptions(horizon=0.0)
        )
        assert result.expected_downtime_hours == 0.0
        assert result.unavailability == 0.0
