"""Tests of the interval fallback for oversized cutset chains."""

import dataclasses
import math

import pytest

from repro.core.analyzer import AnalysisOptions, analyze, analyze_exact
from repro.core.bounds import ProbabilityInterval, bound_cutset
from repro.core.cutset_model import build_cutset_model
from repro.core.quantify import bound_record, quantify_cutset
from repro.core.sdft import SdFaultTreeBuilder
from repro.ctmc.builders import repairable, triggered_repairable
from repro.errors import ChainTooLargeError
from repro.robust.ladder import quantify_with_ladder


class TestProbabilityInterval:
    def test_width_and_midpoint(self):
        interval = ProbabilityInterval(0.2, 0.6)
        assert interval.width == pytest.approx(0.4)
        assert interval.midpoint() == pytest.approx(0.4)


class TestBoundCutset:
    def test_static_cutset_is_tight(self, cooling_sdft):
        model = build_cutset_model(cooling_sdft, frozenset({"a", "c"}))
        interval = bound_cutset(model, 24.0)
        assert interval.lower == interval.upper == pytest.approx(9e-6)

    def test_untriggered_dynamic_is_tight(self, cooling_sdft):
        """A lone untriggered dynamic event is tight: its reach
        probability is both ends and equals the exact quantification."""
        model = build_cutset_model(cooling_sdft, frozenset({"b", "c"}))
        interval = bound_cutset(model, 24.0)
        exact = quantify_cutset(cooling_sdft, frozenset({"b", "c"}), 24.0)
        assert interval.width == pytest.approx(0.0, abs=1e-15)
        assert interval.upper == pytest.approx(exact.probability, rel=1e-9)

    def test_triggered_cutset_brackets_exact(self, cooling_sdft):
        model = build_cutset_model(cooling_sdft, frozenset({"b", "d"}))
        interval = bound_cutset(model, 24.0)
        exact = quantify_cutset(cooling_sdft, frozenset({"b", "d"}), 24.0)
        assert interval.lower <= exact.probability <= interval.upper
        # The upper end is the independent worst-case product.
        p_single = 1 - math.exp(-0.001 * 24)
        assert interval.upper == pytest.approx(p_single**2, rel=1e-9)
        assert interval.lower == 0.0


    def test_two_repairable_untriggered_events_bracket_exact(self):
        """Each failing at some point is not both failing at once: with
        two repairable events the lower end drops below the product of
        reach probabilities and still brackets the exact value."""
        b = SdFaultTreeBuilder("two-repairable")
        b.dynamic_event("x", repairable(0.01, 0.5))
        b.dynamic_event("y", repairable(0.01, 0.5))
        b.and_("top", "x", "y")
        sdft = b.build("top")
        cutset = frozenset({"x", "y"})
        interval = bound_cutset(build_cutset_model(sdft, cutset), 24.0)
        exact = quantify_cutset(sdft, cutset, 24.0).probability
        assert interval.lower <= exact <= interval.upper
        assert interval.lower < exact < interval.upper

    def test_sbo_full_verification_passes(self):
        """The ladder-bracket check on SBO needs the sound lower end."""
        from repro.models import build_sbo

        result = analyze(build_sbo(), AnalysisOptions(verify="full", cutoff=1e-12))
        assert result.health.is_clean


class TestOversizeFallback:
    def _wide_model(self):
        """Enough coupled dynamic events that the chain exceeds a tiny cap."""
        b = SdFaultTreeBuilder("wide")
        names = []
        for i in range(4):
            name = f"d{i}"
            b.dynamic_event(name, repairable(0.01, 0.1))
            names.append(name)
        b.dynamic_event("t", triggered_repairable(0.02, 0.1))
        b.or_("src", *names)
        b.and_("top", *names, "t")
        b.trigger("src", "t")
        return b.build("top"), frozenset([*names, "t"])

    def test_raise_mode_propagates(self):
        sdft, cutset = self._wide_model()
        with pytest.raises(ChainTooLargeError):
            quantify_cutset(sdft, cutset, 24.0, max_chain_states=4)

    def test_bounds_mode_returns_interval(self):
        sdft, cutset = self._wide_model()
        outcome = quantify_with_ladder(sdft, cutset, 24.0, max_chain_states=4)
        record = outcome.record
        assert [a.rung for a in outcome.attempts] == ["exact"]
        bound = bound_record(build_cutset_model(sdft, cutset), 24.0)
        assert record == dataclasses.replace(
            bound, solve_seconds=record.solve_seconds
        )
        assert record.bounded
        assert record.lower_bound is not None
        assert record.lower_bound <= record.probability
        # The conservative value brackets the exact quantification.
        exact = quantify_cutset(sdft, cutset, 24.0)
        assert record.lower_bound <= exact.probability <= record.probability

    def test_analyzer_interval(self, cooling_sdft):
        """With a tiny chain budget the analyzer still completes and
        reports a bracketing interval."""
        options = AnalysisOptions(
            horizon=24.0, max_chain_states=3, fault_isolation=True
        )
        result = analyze(cooling_sdft, options)
        assert result.n_bounded_cutsets >= 1
        lower, upper = result.failure_probability_interval()
        exact = analyze_exact(cooling_sdft, 24.0)
        assert lower <= exact <= upper + 1e-12
        assert upper == pytest.approx(result.failure_probability)

    def test_analyzer_interval_degenerate_without_bounds(self, cooling_sdft):
        result = analyze(cooling_sdft, AnalysisOptions(horizon=24.0))
        lower, upper = result.failure_probability_interval()
        assert lower == pytest.approx(upper)
        assert result.n_bounded_cutsets == 0


class TestDynamicFussellVesely:
    def test_fractions_sum_sensibly(self, cooling_sdft):
        result = analyze(cooling_sdft, AnalysisOptions(horizon=24.0))
        fv = result.fussell_vesely()
        assert set(fv) <= cooling_sdft.all_event_names
        for value in fv.values():
            assert 0.0 <= value <= 1.0
        # a appears in {a,c} and {a,d}; its FV must be positive.
        assert fv["a"] > 0.0

    def test_timing_lowers_the_dynamic_events_share(self, cooling_sdft):
        """Time-aware FV of the in-operation failures is lower than
        their static FV: the {b, d} cutset needs both pumps failed
        *simultaneously*, which repairs and trigger timing suppress."""
        from repro.core.to_static import to_static
        from repro.ft.importance import importance
        from repro.ft.mocus import mocus

        result = analyze(cooling_sdft, AnalysisOptions(horizon=24.0))
        dynamic_fv = result.fussell_vesely()
        static_cutsets = mocus(to_static(cooling_sdft, 24.0).tree).cutsets
        static_fv = importance(static_cutsets)
        assert dynamic_fv["d"] < static_fv["d"].fussell_vesely
        assert dynamic_fv["b"] < static_fv["b"].fussell_vesely

    def test_empty_when_probability_zero(self):
        b = SdFaultTreeBuilder()
        b.static_event("z", 0.0)
        b.or_("top", "z")
        result = analyze(b.build("top"))
        assert result.fussell_vesely() == {}
