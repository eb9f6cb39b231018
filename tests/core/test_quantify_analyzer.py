"""Tests of per-cutset quantification and the end-to-end analyzer.

The load-bearing correctness property throughout: on small models the
per-cutset rare-event sum must (a) over-approximate the exact
product-chain probability and (b) be close to it when probabilities are
small — the two halves of the paper's accuracy claim.
"""

import math

import pytest

from repro.core.analyzer import AnalysisOptions, analyze, analyze_exact, analyze_static
from repro.core.quantify import QuantificationCache, quantify_cutset
from repro.core.sdft import SdFaultTreeBuilder, as_sdft
from repro.ctmc.builders import repairable, triggered_repairable
from repro.ctmc.transient import failure_probability


class TestQuantifyCutset:
    def test_static_cutset_is_product(self, cooling_sdft):
        record = quantify_cutset(cooling_sdft, frozenset({"a", "c"}), 24.0)
        assert record.probability == pytest.approx(9e-6)
        assert not record.is_dynamic
        assert record.chain_states == 0

    def test_always_on_cutset(self, cooling_sdft):
        """{a, d}: p = p(a) * first-passage of d's chain."""
        record = quantify_cutset(cooling_sdft, frozenset({"a", "d"}), 24.0)
        expected = 3e-3 * (1 - math.exp(-0.001 * 24))
        assert record.probability == pytest.approx(expected, rel=1e-9)

    def test_untriggered_dynamic_with_static(self, cooling_sdft):
        """{b, c}: p = p(c) * first-passage of b's chain."""
        record = quantify_cutset(cooling_sdft, frozenset({"b", "c"}), 24.0)
        expected = 3e-3 * (1 - math.exp(-0.001 * 24))
        assert record.probability == pytest.approx(expected, rel=1e-9)

    def test_triggered_pair_less_than_independent(self, cooling_sdft):
        """{b, d}: d only degrades while b is failed, so the joint
        failure probability is far below the independent product."""
        record = quantify_cutset(cooling_sdft, frozenset({"b", "d"}), 24.0)
        independent = (1 - math.exp(-0.001 * 24)) ** 2
        assert 0.0 < record.probability < independent

    def test_cache_hits_on_identical_shapes(self, cooling_sdft):
        cache = QuantificationCache()
        first = quantify_cutset(cooling_sdft, frozenset({"b", "d"}), 24.0, cache=cache)
        second = quantify_cutset(cooling_sdft, frozenset({"b", "d"}), 24.0, cache=cache)
        assert not first.cache_hit and second.cache_hit
        assert first.probability == pytest.approx(second.probability)
        assert cache.hits == 1 and cache.misses == 1

    def test_cache_distinguishes_horizons(self, cooling_sdft):
        cache = QuantificationCache()
        quantify_cutset(cooling_sdft, frozenset({"b", "d"}), 24.0, cache=cache)
        record = quantify_cutset(
            cooling_sdft, frozenset({"b", "d"}), 48.0, cache=cache
        )
        assert not record.cache_hit


class TestAnalyzeRunningExample:
    def test_over_approximates_exact(self, cooling_sdft):
        result = analyze(cooling_sdft, AnalysisOptions(horizon=24.0))
        exact = analyze_exact(cooling_sdft, 24.0)
        assert result.failure_probability >= exact - 1e-12
        assert result.failure_probability <= 1.1 * exact

    def test_static_bound_dominates(self, cooling_sdft):
        result = analyze(cooling_sdft, AnalysisOptions(horizon=24.0))
        assert result.static_bound >= result.failure_probability
        assert analyze_static(cooling_sdft) == pytest.approx(result.static_bound)

    def test_record_bookkeeping(self, cooling_sdft):
        result = analyze(cooling_sdft, AnalysisOptions(horizon=24.0))
        assert result.n_cutsets == 5
        assert result.n_dynamic_cutsets == 3
        assert result.classification.by_gate  # pump1 classified
        assert result.timings.total_seconds > 0.0

    def test_cutoff_drops_quantified_cutsets(self, cooling_sdft):
        # A cutoff above every quantified value yields zero.
        result = analyze(cooling_sdft, AnalysisOptions(horizon=24.0, cutoff=1e-2))
        assert result.failure_probability == 0.0

    def test_longer_horizon_increases_probability(self, cooling_sdft):
        p24 = analyze(cooling_sdft, AnalysisOptions(horizon=24.0)).failure_probability
        p96 = analyze(cooling_sdft, AnalysisOptions(horizon=96.0)).failure_probability
        assert p96 > p24


class TestPlainFaultTree:
    def test_static_tree_is_promoted(self, cooling_tree):
        """A plain FaultTree is analysed as the SD tree with no dynamics."""
        result = analyze(cooling_tree, AnalysisOptions(cutoff=0.0))
        promoted = analyze(as_sdft(cooling_tree), AnalysisOptions(cutoff=0.0))
        assert result.failure_probability == promoted.failure_probability
        assert result.n_cutsets == 5
        assert result.n_dynamic_cutsets == 0


class TestStaticCutoffOverrides:
    def test_overrides_restore_cut_cutsets(self, cooling_sdft):
        """With a cutoff that would drop the dynamic cutsets under their
        worst-case probabilities, the paper's static-cutoff override
        keeps them in the list (and they still quantify dynamically)."""
        # Worst-case p(b) = p(d) ~ 0.0237; {b,d} static value ~ 5.6e-4.
        # A cutoff of 1e-3 drops every cutset.
        options = AnalysisOptions(horizon=24.0, cutoff=1e-3)
        plain = analyze(cooling_sdft, options)
        assert plain.n_cutsets == 0
        # Pretend the legacy static study had p=0.05 for both events.
        overridden = analyze(
            cooling_sdft,
            AnalysisOptions(
                horizon=24.0,
                cutoff=1e-3,
                mocus_probability_overrides={"b": 0.05, "d": 0.05},
            ),
        )
        assert overridden.n_cutsets >= 1
        assert any(r.is_dynamic for r in overridden.records)

    def test_overrides_do_not_change_quantification(self, cooling_sdft):
        base = analyze(cooling_sdft, AnalysisOptions(horizon=24.0))
        overridden = analyze(
            cooling_sdft,
            AnalysisOptions(
                horizon=24.0,
                mocus_probability_overrides={"b": 0.5, "d": 0.5},
            ),
        )
        # Same cutsets survive (everything is far above the cutoff
        # either way), and each quantified value is identical.
        base_map = {r.cutset: r.probability for r in base.records}
        over_map = {r.cutset: r.probability for r in overridden.records}
        assert base_map == over_map


class TestTriggerClassAccuracy:
    """Each trigger class' quantification vs the exact product chain."""

    def _check(self, sdft, tolerance=1.5):
        result = analyze(sdft, AnalysisOptions(horizon=24.0))
        exact = analyze_exact(sdft, 24.0)
        assert result.failure_probability >= exact - 1e-12
        assert result.failure_probability <= tolerance * exact
        return result

    def test_static_joins(self):
        b = SdFaultTreeBuilder()
        b.dynamic_event("e", repairable(0.02, 0.5))
        b.dynamic_event("f", repairable(0.03, 0.5))
        b.dynamic_event("g", triggered_repairable(0.05, 0.2))
        b.static_event("s", 0.01)
        b.or_("trigger_sys", "e", "f")
        b.and_("top", "trigger_sys", "g", "s")
        b.trigger("trigger_sys", "g")
        self._check(b.build("top"))

    def test_general_case(self):
        b = SdFaultTreeBuilder()
        b.dynamic_event("p", repairable(0.02, 0.5))
        b.dynamic_event("q1", repairable(0.04, 0.5))
        b.dynamic_event("q2", repairable(0.03, 0.4))
        b.static_event("d", 0.15)
        b.dynamic_event("r", triggered_repairable(0.05, 0.2))
        b.or_("guard", "d", "q1", "q2")
        b.and_("trig_gate", "p", "guard")
        b.and_("aux", "trig_gate", "r")
        b.or_("top", "aux")
        b.trigger("trig_gate", "r")
        result = self._check(b.build("top"))
        assert result.classification.any_general

    def test_chained_uniform_triggering(self):
        b = SdFaultTreeBuilder()
        b.dynamic_event("a1", repairable(0.03, 0.3))
        b.dynamic_event("a2", repairable(0.02, 0.3))
        b.dynamic_event("b1", triggered_repairable(0.04, 0.3))
        b.dynamic_event("b2", triggered_repairable(0.05, 0.3))
        b.dynamic_event("c1", triggered_repairable(0.06, 0.3))
        b.or_("sysA", "a1", "a2")
        b.or_("sysB", "b1", "b2")
        b.and_("top", "sysA", "sysB", "c1")
        b.trigger("sysA", "b1", "b2")
        b.trigger("sysB", "c1")
        self._check(b.build("top"))


class TestTimingRealism:
    def test_trigger_reduces_failure_probability(self):
        """A spare that is only exposed after the primary fails must be
        less likely to fail than one running from the start — the core
        realism claim of the paper's introduction."""
        def build(triggered: bool):
            b = SdFaultTreeBuilder()
            b.dynamic_event("primary", repairable(0.01, 0.2))
            if triggered:
                b.dynamic_event("spare", triggered_repairable(0.01, 0.2))
            else:
                b.dynamic_event("spare", repairable(0.01, 0.2))
            b.or_("src", "primary")
            b.and_("top", "primary", "spare")
            if triggered:
                b.trigger("src", "spare")
            return b.build("top")

        with_trigger = analyze(build(True), AnalysisOptions(horizon=24.0))
        without = analyze(build(False), AnalysisOptions(horizon=24.0))
        assert with_trigger.failure_probability < without.failure_probability

    def test_faster_repair_reduces_failure_probability(self):
        def build(repair_rate: float):
            b = SdFaultTreeBuilder()
            b.dynamic_event("x", repairable(0.05, repair_rate))
            b.dynamic_event("y", repairable(0.05, repair_rate))
            b.and_("top", "x", "y")
            return b.build("top")

        slow = analyze(build(0.01), AnalysisOptions(horizon=48.0))
        fast = analyze(build(1.0), AnalysisOptions(horizon=48.0))
        assert fast.failure_probability < slow.failure_probability
