"""Scaling and edge-case regression tests of the production BDD engine.

The iterative engine rewrite exists so that deep chain-shaped trees —
the classical recursion killer — compile, negate and quantify at the
default Python recursion limit.  These tests pin that property at 5,000
events, plus the ``atleast`` boundary semantics and duplicate-operand
behaviour the old per-call-memo implementation left untested.
"""

from __future__ import annotations

import math
import sys

import pytest

from repro.bdd.engine import FALSE, TRUE, BddManager
from repro.bdd.ft_bdd import compile_tree
from repro.errors import BddBudgetExceeded
from repro.ft.builder import FaultTreeBuilder

CHAIN_EVENTS = 5_000


def _chain_tree(n: int, probability: float = 1e-4):
    """A pathological depth-``n`` chain: ``g_i = OR(e_i, g_{i+1})``."""
    b = FaultTreeBuilder(f"chain-{n}")
    for i in range(n):
        b.event(f"e{i}", probability)
    b.or_(f"g{n - 1}", f"e{n - 1}")
    for i in range(n - 2, -1, -1):
        b.or_(f"g{i}", f"e{i}", f"g{i + 1}")
    return b.build("g0")


class TestDeepChains:
    def test_5000_event_chain_compiles_and_evaluates(self):
        """The regression of the tentpole: no RecursionError at depth 5000.

        The old recursive ``_apply``/``negate``/``probability`` walks
        died on this shape well below 5,000 events.
        """
        assert sys.getrecursionlimit() <= 10_000  # the test must be honest
        tree = _chain_tree(CHAIN_EVENTS)
        compiled = compile_tree(tree)
        p = compiled.probability()
        exact = 1.0 - (1.0 - 1e-4) ** CHAIN_EVENTS
        assert math.isclose(p, exact, rel_tol=1e-9)

    def test_deep_chain_negation_and_minsol(self):
        m = BddManager()
        # A single conjunction chain of depth 5000 built variable by
        # variable exercises negate/minsol on maximally deep BDDs.
        f = TRUE
        for i in range(CHAIN_EVENTS - 1, -1, -1):
            f = m.apply_and(m.var(i), f)
        g = m.negate(m.negate(f))
        assert g == f
        minimal = m.minsol(f)
        assert m.count_paths(minimal) == 1

    def test_deep_chain_apply_mixes(self):
        m = BddManager()
        f = FALSE
        # Top-down: each OR adds one node above the chain (linear build).
        for i in range(CHAIN_EVENTS - 1, -1, -1):
            f = m.apply_or(m.var(i), f)
        p = m.probability(f, {i: 1e-4 for i in range(CHAIN_EVENTS)})
        assert math.isclose(p, 1.0 - (1.0 - 1e-4) ** CHAIN_EVENTS, rel_tol=1e-9)


class TestAtleastBoundaries:
    def test_k_zero_is_tautology(self):
        m = BddManager()
        nodes = [m.var(i) for i in range(4)]
        assert m.atleast(0, nodes) == TRUE
        assert m.atleast(-3, nodes) == TRUE
        assert m.atleast(0, []) == TRUE

    def test_k_equal_len_is_conjunction(self):
        m = BddManager()
        nodes = [m.var(i) for i in range(4)]
        assert m.atleast(4, nodes) == m.conjoin(nodes)

    def test_k_above_len_is_contradiction(self):
        m = BddManager()
        nodes = [m.var(i) for i in range(4)]
        assert m.atleast(5, nodes) == FALSE
        assert m.atleast(1, []) == FALSE

    def test_k_one_is_disjunction(self):
        m = BddManager()
        nodes = [m.var(i) for i in range(4)]
        assert m.atleast(1, nodes) == m.disjoin(nodes)


class TestDuplicateOperands:
    def test_duplicate_children_under_and(self):
        m = BddManager()
        x, y = m.var(0), m.var(1)
        assert m.conjoin([x, x, y, y, x]) == m.apply_and(x, y)

    def test_duplicate_children_under_or(self):
        m = BddManager()
        x, y = m.var(0), m.var(1)
        assert m.disjoin([x, x, y, x]) == m.apply_or(x, y)

    def test_shared_subtree_reaching_a_gate_twice(self):
        # A diamond: the shared gate feeds both AND inputs, so the
        # conjunction collapses to the shared function itself.
        b = FaultTreeBuilder("dup")
        b.event("a", 0.2).event("b", 0.3)
        b.or_("shared", "a", "b")
        b.or_("left", "shared")
        b.or_("right", "shared")
        b.and_("top", "left", "right")
        tree = b.build("top")
        compiled = compile_tree(tree)
        assert math.isclose(
            compiled.probability(), 1 - 0.8 * 0.7, rel_tol=1e-12
        )


class TestNodeBudget:
    def test_budget_trips_cleanly(self):
        m = BddManager(node_budget=4)
        with pytest.raises(BddBudgetExceeded):
            # Parity-like structure forces fresh nodes past any budget.
            f = m.var(0)
            for i in range(1, 64):
                f = m.apply_and(m.negate(f), m.var(i))

    def test_existing_nodes_never_trip(self):
        m = BddManager()
        x, y = m.var(0), m.var(1)
        f = m.apply_and(x, y)
        m.node_budget = len(m)
        # Re-deriving only existing nodes stays within the table.
        assert m.apply_and(x, y) == f

    def test_compile_tree_respects_budget(self):
        tree = _chain_tree(64)
        with pytest.raises(BddBudgetExceeded):
            compile_tree(tree, node_budget=3)
