"""Tests of the top-probability aggregations and their ordering."""

import math

from hypothesis import given

from repro.bdd import exact_probability
from repro.ft.mocus import MocusOptions, mocus
from repro.ft.scenario import exact_top_probability

from tests.strategies import fault_trees


class TestKnownValues:
    def test_rare_event_paper_example(self, cooling_tree):
        cutsets = mocus(cooling_tree).cutsets
        # Sum over the five MCSs of Example 7.
        expected = 3e-6 + 9e-6 + 3e-6 + 3e-6 + 1e-6
        assert math.isclose(cutsets.rare_event(), expected, rel_tol=1e-12)
        assert len(cutsets) == 5

    def test_exact_matches_brute_force(self, cooling_tree):
        assert math.isclose(
            exact_probability(cooling_tree),
            exact_top_probability(cooling_tree),
            rel_tol=1e-9,
        )

    def test_cutsets_can_be_reused(self, cooling_tree):
        # One cutset list answers both aggregations.
        cutsets = mocus(cooling_tree).cutsets
        assert len(cutsets) == 5
        assert 0.0 < cutsets.min_cut_upper_bound() <= cutsets.rare_event()


class TestOrdering:
    @given(fault_trees(max_events=7, max_gates=6, min_probability=0.01, max_probability=0.5))
    def test_exact_between_mcub_and_rare_event(self, tree):
        """For coherent trees: exact <= MCUB <= rare-event sum.

        (MCUB is exact for a single cutset and an upper bound in
        general; the rare-event sum is the loosest.)
        """
        cutsets = mocus(tree, MocusOptions(cutoff=0.0)).cutsets
        exact = exact_probability(tree)
        mcub = cutsets.min_cut_upper_bound()
        rare = cutsets.rare_event()
        assert exact <= mcub + 1e-9
        assert mcub <= rare + 1e-9

    @given(fault_trees(max_events=6, max_gates=5, min_probability=0.001, max_probability=0.01))
    def test_rare_event_tight_for_small_probabilities(self, tree):
        """With small probabilities the rare-event error is second order."""
        cutsets = mocus(tree, MocusOptions(cutoff=0.0)).cutsets
        exact = exact_probability(tree)
        rare = cutsets.rare_event()
        if exact > 0.0:
            assert rare / exact < 1.05
