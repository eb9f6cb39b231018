"""Differential cross-checks: re-quantification, BDD oracle, brackets,
rare-event statistical agreement."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.analyzer import AnalysisOptions, analyze
from repro.core.to_static import to_static
from repro.errors import CrosscheckError
from repro.ft.mocus import MocusOptions, mocus
from repro.robust import faults
from repro.robust.crosscheck import (
    CrosscheckSummary,
    run_crosschecks,
)
from repro.robust.health import HealthLog

HORIZON = 24.0


def _analysis_pieces(sdft, opts):
    """The inputs run_crosschecks receives from the analyzer."""
    result = analyze(sdft, opts)
    tree = to_static(sdft, opts.horizon).tree
    mocus_result = mocus(tree, MocusOptions(cutoff=opts.cutoff))
    return tree, mocus_result, result


class TestRunCrosschecks:
    def test_clean_run_passes_every_check(self, cooling_sdft):
        opts = AnalysisOptions(horizon=HORIZON)
        tree, mocus_result, result = _analysis_pieces(cooling_sdft, opts)
        health = HealthLog()
        summary = run_crosschecks(
            cooling_sdft, tree, mocus_result, result.records, opts, health
        )
        assert summary.rechecked >= 1
        assert summary.bdd_checked  # 5 events: well under the ceiling
        assert summary.bracketed >= 1
        assert any("crosscheck" in e.message for e in health.freeze().events)

    def test_detects_a_corrupted_record(self, cooling_sdft):
        """A silently-inflated stored value disagrees with the re-solve."""
        opts = AnalysisOptions(horizon=HORIZON)
        tree, mocus_result, result = _analysis_pieces(cooling_sdft, opts)
        doctored = tuple(
            dataclasses.replace(r, probability=r.probability * 1.01)
            if r.is_dynamic
            else r
            for r in result.records
        )
        with pytest.raises(CrosscheckError, match="disagrees"):
            run_crosschecks(
                cooling_sdft, tree, mocus_result, doctored, opts, HealthLog()
            )

    def test_big_trees_run_the_bdd_oracle_now(self):
        """The 24-event ceiling is gone: the BWR model compiles and checks."""
        from repro.models.bwr import build_bwr

        big_sdft = build_bwr()
        big_opts = AnalysisOptions(horizon=HORIZON, cutoff=1e-7)
        big_tree, big_mocus, big_result = _analysis_pieces(big_sdft, big_opts)
        assert len(big_tree.events) > 24  # the old oracle would have skipped
        summary = run_crosschecks(
            big_sdft,
            big_tree,
            big_mocus,
            big_result.records,
            big_opts,
            HealthLog(),
        )
        assert summary.bdd_checked
        assert not any("BDD oracle" in s for s in summary.skipped)

    def test_tiny_node_budget_skips_the_oracle_with_a_note(self, cooling_sdft):
        """The only size gate left is the node budget, and it skips cleanly."""
        opts = AnalysisOptions(horizon=HORIZON, bdd_node_budget=1)
        tree, mocus_result, result = _analysis_pieces(cooling_sdft, opts)
        summary = run_crosschecks(
            cooling_sdft, tree, mocus_result, result.records, opts, HealthLog()
        )
        assert not summary.bdd_checked
        assert any("node budget" in s for s in summary.skipped)

    def test_static_only_records_skip_with_notes(self, cooling_sdft):
        """With nothing dynamic to re-solve, both samplers note the skip."""
        opts = AnalysisOptions(horizon=HORIZON)
        tree, mocus_result, result = _analysis_pieces(cooling_sdft, opts)
        static_only = tuple(r for r in result.records if not r.is_dynamic)
        summary = run_crosschecks(
            cooling_sdft, tree, mocus_result, static_only, opts, HealthLog()
        )
        assert summary.rechecked == 0
        assert summary.bracketed == 0
        assert len(summary.skipped) >= 2

    def test_summary_message_is_informative(self):
        summary = CrosscheckSummary(5, True, 3, ("BDD oracle: nope",))
        message = summary.message()
        assert "5 cutsets re-quantified" in message
        assert "BDD oracle checked" in message
        assert "skipped" in message


class TestAnalyzerFullMode:
    def test_full_mode_runs_and_logs_crosschecks(self, cooling_sdft):
        result = analyze(
            cooling_sdft, AnalysisOptions(horizon=HORIZON, verify="full")
        )
        assert any(
            "crosscheck" in e.message for e in result.health.events
        )
        assert result.health.is_clean

    def test_full_mode_matches_off_mode(self, cooling_sdft):
        baseline = analyze(cooling_sdft, AnalysisOptions(horizon=HORIZON))
        full = analyze(
            cooling_sdft, AnalysisOptions(horizon=HORIZON, verify="full")
        )
        assert full.failure_probability == baseline.failure_probability

    def test_full_mode_finishes_on_model_1(self):
        """The oracle enumerates model_1's 100,651 exact minimal cutsets
        and serves the cheap mode's answer."""
        from repro.models import model_1

        tree = model_1()
        full = analyze(tree, AnalysisOptions(verify="full", cutoff=1e-12))
        cheap = analyze(tree, AnalysisOptions(verify="cheap", cutoff=1e-12))
        assert full.failure_probability == cheap.failure_probability
        assert any("BDD oracle checked" in e.message for e in full.health.events)


class TestRareEvent:
    """The verify="full" rare-event estimate against uniformization."""

    def test_full_verify_cross_checks_a_rare_event_estimate(self, cooling_sdft):
        result = analyze(
            cooling_sdft, AnalysisOptions(horizon=HORIZON, verify="full")
        )
        notes = [
            e.message
            for e in result.health.events
            if "crosscheck:" in e.message
        ]
        assert notes
        assert "1 rare-event estimates cross-checked" in notes[0]

    def test_corrupted_estimator_fails_the_crosscheck(self, cooling_sdft):
        """N-sigma disagreement with uniformization raises CrosscheckError."""
        with faults.inject_value(
            "rare_event_estimate", lambda p: p * 50.0 + 1e-3
        ), pytest.raises(CrosscheckError, match="rare-event estimate"):
            analyze(
                cooling_sdft, AnalysisOptions(horizon=HORIZON, verify="full")
            )
