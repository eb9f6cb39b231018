"""Tests of the production BDD quantifier: orderings, modules, exactness."""

from __future__ import annotations

import math

import pytest

from repro.bdd.ft_bdd import compile_tree, exact_probability
from repro.bdd.ordering import (
    AUTO_CANDIDATES,
    ORDERINGS,
    depth_order,
    dfs_order,
    weight_order,
)
from repro.bdd.quantify import quantify_static_tree
from repro.errors import BddBudgetExceeded
from repro.ft.builder import FaultTreeBuilder
from repro.ft.cutsets import CutSetList
from repro.ft.mocus import MocusOptions, mocus
from repro.models.synthetic import model_1, model_2


def _voting_tree():
    """A 2-of-4 vote over moderately likely events (10 minimal cutsets)."""
    b = FaultTreeBuilder("voting")
    for i in range(4):
        b.event(f"v{i}", 0.1 + 0.05 * i)
    b.atleast("top", 2, "v0", "v1", "v2", "v3")
    return b.build("top")


def _cooling_tree():
    b = FaultTreeBuilder("cooling")
    b.event("a", 3e-3).event("b", 1e-3)
    b.event("c", 3e-3).event("d", 1e-3)
    b.event("e", 3e-6)
    b.or_("pump1", "a", "b").or_("pump2", "c", "d")
    b.and_("pumps", "pump1", "pump2")
    return b.or_("cooling", "pumps", "e").build("cooling")


class TestOrderings:
    @pytest.mark.parametrize("name", sorted(ORDERINGS))
    def test_every_ordering_is_a_permutation(self, name):
        tree = _cooling_tree()
        order = ORDERINGS[name](tree)
        assert sorted(order) == sorted(tree.events)

    @pytest.mark.parametrize("name", sorted(ORDERINGS))
    def test_probability_is_order_invariant(self, name):
        """Any variable order gives the same (exact) probability."""
        tree = _cooling_tree()
        reference = exact_probability(tree)
        compiled = compile_tree(tree, ORDERINGS[name](tree))
        assert math.isclose(compiled.probability(), reference, rel_tol=1e-12)

    def test_auto_candidates_are_registered(self):
        assert set(AUTO_CANDIDATES) <= set(ORDERINGS)
        assert "dfs" in AUTO_CANDIDATES

    def test_weight_order_puts_heavy_variables_first(self):
        # 'e' sits directly under the top OR (weight 1/3); the pump
        # events sit two gates down behind an AND split.
        tree = _cooling_tree()
        assert weight_order(tree)[0] == "e"

    def test_depth_order_puts_shallow_variables_first(self):
        tree = _cooling_tree()
        assert depth_order(tree)[0] == "e"

    def test_orders_are_deterministic(self):
        tree = _cooling_tree()
        for heuristic in (dfs_order, weight_order, depth_order):
            assert heuristic(tree) == heuristic(tree)


class TestQuantifyStaticTree:
    @pytest.mark.parametrize("factory", [model_1, model_2])
    def test_modular_matches_monolithic(self, factory):
        tree = factory(0.01)
        modular = quantify_static_tree(tree)
        first = ORDERINGS[AUTO_CANDIDATES[0]]
        monolithic = compile_tree(tree, first(tree)).probability()
        assert math.isclose(modular.probability, monolithic, rel_tol=1e-12)
        assert modular.n_modules > 0

    def test_matches_plain_exact_probability(self):
        tree = _cooling_tree()
        q = quantify_static_tree(tree)
        assert math.isclose(q.probability, exact_probability(tree), rel_tol=1e-12)
        assert q.node_count > 0
        assert q.ordering in ORDERINGS

    def test_budget_propagates_when_all_orderings_trip(self):
        tree = _cooling_tree()
        with pytest.raises(BddBudgetExceeded):
            quantify_static_tree(tree, node_budget=3)

    def test_reported_ordering_is_the_first_candidate_that_fits(self):
        q = quantify_static_tree(_cooling_tree())
        assert q.ordering == AUTO_CANDIDATES[0]
        assert q.module_orderings == ()


class TestExactnessAgainstInclusionExclusion:
    """The BDD probability equals inclusion–exclusion over the MCS family.

    Both are exact on small models (≤ 24 events, so the full expansion
    is feasible); agreement pins the Shannon-expansion evaluation
    against an algebraically independent derivation.
    """

    @pytest.mark.parametrize(
        "tree",
        [_cooling_tree(), _voting_tree()],
        ids=["cooling", "voting"],
    )
    def test_bdd_matches_inclusion_exclusion(self, tree):
        assert len(tree.events) <= 24
        full = mocus(tree, MocusOptions(cutoff=0.0)).cutsets
        assert len(full) <= 20  # the full expansion must stay feasible
        probabilities = {n: e.probability for n, e in tree.events.items()}
        family = CutSetList.from_cutsets(list(full), probabilities, minimal=True)
        expected = family.inclusion_exclusion()
        assert math.isclose(
            exact_probability(tree), expected, rel_tol=1e-9, abs_tol=1e-300
        )

    def test_bracket_holds(self):
        """rare-event sum >= exact >= largest single cutset."""
        for tree in (_cooling_tree(), model_1(0.05)):
            full = mocus(tree, MocusOptions(cutoff=0.0)).cutsets
            exact = exact_probability(tree)
            assert full.rare_event() >= exact - 1e-12
            assert full.largest_cutset_probability() <= exact + 1e-12
