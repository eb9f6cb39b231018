"""Tests of fault tree -> BDD compilation against brute-force oracles."""

import math

import pytest
from hypothesis import given

from repro.bdd.ft_bdd import compile_tree, exact_mcs, exact_probability
from repro.bdd.ordering import ORDERINGS
from repro.ft.scenario import exact_top_probability, minimal_failure_sets

from tests.strategies import fault_trees


class TestExactProbability:
    def test_paper_example(self, cooling_tree):
        assert math.isclose(
            exact_probability(cooling_tree),
            exact_top_probability(cooling_tree),
            rel_tol=1e-9,
        )

    @given(fault_trees(max_events=7, max_gates=6))
    def test_matches_brute_force(self, tree):
        assert math.isclose(
            exact_probability(tree),
            exact_top_probability(tree),
            rel_tol=1e-9,
            abs_tol=1e-12,
        )

    @given(fault_trees(max_events=6, max_gates=5))
    def test_order_independence(self, tree):
        """Different variable orders give different BDDs, same probability."""
        values = []
        for order_fn in ORDERINGS.values():
            compiled = compile_tree(tree, order_fn(tree))
            values.append(compiled.probability())
        assert max(values) - min(values) < 1e-12


class TestExactMcs:
    def test_paper_example_7(self, cooling_tree):
        cutsets = exact_mcs(cooling_tree)
        assert set(cutsets.cutsets) == {
            frozenset({"e"}),
            frozenset({"a", "c"}),
            frozenset({"a", "d"}),
            frozenset({"b", "c"}),
            frozenset({"b", "d"}),
        }

    @given(fault_trees(max_events=7, max_gates=6))
    def test_matches_brute_force(self, tree):
        expected = set(minimal_failure_sets(tree))
        assert set(exact_mcs(tree).cutsets) == expected

    def test_mcs_of_inner_gate(self, cooling_tree):
        compiled = compile_tree(cooling_tree)
        inner = compiled.minimal_cutsets_of("pump1")
        assert set(inner.cutsets) == {frozenset({"a"}), frozenset({"b"})}


class TestMinsolBdd:
    """Minimal cutsets read off the minimal-solutions BDD (``minsol``)."""

    @given(fault_trees(max_events=7, max_gates=6))
    def test_methods_agree(self, tree):
        """The top-gate and any-gate extractions list every minsol path once."""
        compiled = compile_tree(tree)
        top = compiled.minimal_cutsets()
        assert set(top.cutsets) == set(
            compiled.minimal_cutsets_of(tree.top).cutsets
        )
        paths = compiled.manager.count_paths(compiled.manager.minsol(compiled.root))
        assert len(top) == paths

    @given(fault_trees(max_events=7, max_gates=6))
    def test_bdd_method_matches_brute_force(self, tree):
        compiled = compile_tree(tree)
        expected = set(minimal_failure_sets(tree))
        assert set(compiled.minimal_cutsets().cutsets) == expected

    def test_minsol_idempotent(self, cooling_tree):
        compiled = compile_tree(cooling_tree)
        manager = compiled.manager
        once = manager.minsol(compiled.root)
        twice = manager.minsol(once)
        assert once == twice


class TestBundledFamilies:
    """Exact minimal-cutset family sizes of the bundled static models."""

    def test_bwr_static(self):
        from repro.models.bwr import BwrConfig, build_bwr

        tree = build_bwr(BwrConfig(dynamic=False)).structure
        assert len(exact_mcs(tree)) == 4_795

    def test_model_1(self):
        from repro.models import model_1

        assert len(exact_mcs(model_1())) == 100_651

    def test_model_2(self):
        from repro.models import model_2

        assert len(exact_mcs(model_2())) == 117_478


class TestCompiledTree:
    def test_gate_roots_shared_manager(self, cooling_tree):
        compiled = compile_tree(cooling_tree)
        assert set(compiled.gate_roots) == set(cooling_tree.gates)
        assert compiled.root == compiled.gate_roots["cooling"]
        assert compiled.node_count > 2

    def test_invalid_order_rejected(self, cooling_tree):
        with pytest.raises(ValueError):
            compile_tree(cooling_tree, ["a", "b"])  # not a permutation
