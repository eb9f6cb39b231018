"""Static quantification: BDD-exact serving, fallbacks, overshoot fix."""

from __future__ import annotations

import math

import pytest

from repro.bdd.ft_bdd import exact_probability
from repro.bdd.quantify import quantify_static_tree
from repro.core.analyzer import AnalysisOptions, analyze
from repro.core.sdft import SdFaultTree
from repro.core.to_static import to_static
from repro.ft.builder import FaultTreeBuilder
from repro.ft.mocus import MocusOptions, mocus
from repro.models.bwr import BwrConfig, build_bwr

HORIZON = 24.0
#: A BDD node budget every static test tree trips: the cutset path.
TRIPPED = 2


def _static_sdft(tree) -> SdFaultTree:
    """Promote a plain static tree to an (all-static) SD tree."""
    return SdFaultTree(
        tree.top,
        list(tree.events.values()),
        [],
        list(tree.gates.values()),
        name=tree.name,
    )


def _cooling():
    b = FaultTreeBuilder("cooling-static")
    b.event("a", 3e-3).event("b", 1e-3)
    b.event("c", 3e-3).event("d", 1e-3)
    b.event("e", 3e-6)
    b.or_("pump1", "a", "b").or_("pump2", "c", "d")
    b.and_("pumps", "pump1", "pump2")
    return b.or_("cooling", "pumps", "e").build("cooling")


def _overshoot():
    """Two near-certain single-event cutsets: rare-event sum 1.8 > 1."""
    b = FaultTreeBuilder("overshoot")
    b.event("x", 0.9).event("y", 0.9)
    b.or_("top", "x", "y")
    return b.build("top")


class TestBddEngine:
    def test_auto_serves_the_exact_bdd_value(self):
        tree = _cooling()
        result = analyze(_static_sdft(tree), AnalysisOptions(horizon=HORIZON))
        assert result.method == "bdd-exact"
        assert math.isclose(
            result.failure_probability, exact_probability(tree), rel_tol=1e-12
        )
        assert result.bdd_nodes > 0
        assert result.bdd_ordering
        assert result.rare_event_sum is not None
        assert result.rare_event_sum >= result.failure_probability - 1e-12
        assert any(
            e.stage == "bdd" and "exact BDD" in e.message
            for e in result.health.events
        )

    def test_exact_interval_is_degenerate(self):
        result = analyze(
            _static_sdft(_cooling()), AnalysisOptions(horizon=HORIZON)
        )
        lower, upper = result.failure_probability_interval()
        assert lower == upper == result.failure_probability

    def test_mcs_engine_keeps_the_classical_path(self):
        result = analyze(
            _static_sdft(_cooling()),
            AnalysisOptions(horizon=HORIZON, bdd_node_budget=TRIPPED),
        )
        assert result.method == "mcs-rare-event"
        assert result.bdd_nodes == 0
        assert result.failure_probability == result.rare_event_sum

    def test_engines_agree_within_rare_event_error(self):
        sdft = _static_sdft(_cooling())
        bdd = analyze(sdft, AnalysisOptions(horizon=HORIZON))
        mcs = analyze(sdft, AnalysisOptions(horizon=HORIZON, bdd_node_budget=TRIPPED))
        assert (bdd.method, mcs.method) == ("bdd-exact", "mcs-rare-event")
        # rare-event sum >= exact >= largest single cutset
        assert mcs.failure_probability >= bdd.failure_probability - 1e-12
        assert math.isclose(
            mcs.failure_probability, bdd.failure_probability, rel_tol=1e-2
        )
        # The same bracket at scale, on the trigger-free BWR translation.
        for model in (sdft, build_bwr(BwrConfig(triggers=()))):
            tree = to_static(model, HORIZON).tree
            exact = quantify_static_tree(tree).probability
            cutsets = mocus(tree, MocusOptions(cutoff=1e-12)).cutsets
            estimate, _ = cutsets.sound_estimate()
            slack = 1e-9 * max(1.0, exact)
            assert cutsets.largest_cutset_probability() <= exact + slack
            assert exact <= estimate + slack

    def test_budget_trip_falls_back_to_cutsets(self):
        result = analyze(
            _static_sdft(_cooling()),
            AnalysisOptions(horizon=HORIZON, bdd_node_budget=TRIPPED),
        )
        assert result.method == "mcs-rare-event"
        assert any(
            e.stage == "bdd" and "falling back" in e.message
            for e in result.health.events
        )
        # The fallback is informational: the run still counts as clean.
        assert result.health.is_clean

    def test_dynamic_models_never_use_the_bdd(self, cooling_sdft):
        result = analyze(cooling_sdft, AnalysisOptions(horizon=HORIZON))
        assert result.method == "mcs-rare-event"
        assert result.bdd_nodes == 0

    def test_verify_cheap_passes_on_the_exact_path(self):
        result = analyze(
            _static_sdft(_cooling()),
            AnalysisOptions(horizon=HORIZON, verify="cheap"),
        )
        assert result.method == "bdd-exact"
        assert result.health.is_clean


class TestOvershootFix:
    def test_mcs_path_serves_the_min_cut_upper_bound(self):
        """The soundness bugfix: the served value can no longer exceed 1."""
        result = analyze(
            _static_sdft(_overshoot()),
            AnalysisOptions(horizon=HORIZON, bdd_node_budget=TRIPPED),
        )
        assert result.method == "mcs-min-cut-ub"
        assert result.rare_event_sum == pytest.approx(1.8)
        assert result.failure_probability == pytest.approx(0.99)
        assert result.failure_probability <= 1.0
        assert any(
            "overshoots 1.0" in e.message for e in result.health.events
        )

    def test_overshoot_summary_names_the_estimator(self):
        result = analyze(
            _static_sdft(_overshoot()),
            AnalysisOptions(horizon=HORIZON, bdd_node_budget=TRIPPED),
        )
        summary = result.summary()
        assert "mcs-min-cut-ub" in summary
        assert "min-cut upper bound" in summary

    def test_bdd_engine_solves_the_overshoot_exactly(self):
        result = analyze(
            _static_sdft(_overshoot()), AnalysisOptions(horizon=HORIZON)
        )
        assert result.method == "bdd-exact"
        assert result.failure_probability == pytest.approx(0.99)

    def test_verify_accepts_the_served_bound(self):
        """P1 on the served value passes even though the raw sum is 1.8."""
        for budget in (TRIPPED, 200_000):
            result = analyze(
                _static_sdft(_overshoot()),
                AnalysisOptions(
                    horizon=HORIZON, bdd_node_budget=budget, verify="cheap"
                ),
            )
            assert result.failure_probability <= 1.0

    def test_overshoot_interval_brackets_the_serve(self):
        result = analyze(
            _static_sdft(_overshoot()),
            AnalysisOptions(horizon=HORIZON, bdd_node_budget=TRIPPED),
        )
        lower, upper = result.failure_probability_interval()
        assert lower <= result.failure_probability <= upper
        assert upper <= 1.0
        # The floor is the largest single record, not the raw sum.
        assert lower == pytest.approx(0.9)


class TestRecordsCacheRoundTrip:
    def test_method_survives_the_records_layer(self, tmp_path):
        sdft = _static_sdft(_overshoot())
        opts = AnalysisOptions(
            horizon=HORIZON, bdd_node_budget=TRIPPED, cache_dir=str(tmp_path)
        )
        first = analyze(sdft, opts)
        second = analyze(sdft, opts)
        assert any(
            "full-result hit" in e.message for e in second.health.events
        )
        assert second.method == first.method == "mcs-min-cut-ub"
        assert second.failure_probability == first.failure_probability

    def test_bdd_stats_survive_the_records_layer(self, tmp_path):
        sdft = _static_sdft(_cooling())
        opts = AnalysisOptions(horizon=HORIZON, cache_dir=str(tmp_path))
        first = analyze(sdft, opts)
        second = analyze(sdft, opts)
        assert second.method == "bdd-exact"
        assert second.failure_probability == first.failure_probability
        assert second.bdd_nodes == first.bdd_nodes
        assert second.bdd_ordering == first.bdd_ordering
