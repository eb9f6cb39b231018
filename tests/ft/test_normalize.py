"""Tests of partial evaluation (:func:`repro.ft.normalize.restrict`)."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import UnknownNodeError
from repro.ft.builder import FaultTreeBuilder
from repro.ft.normalize import restrict
from repro.ft.scenario import fails, fails_top

from tests.strategies import fault_trees


def _vote_tree():
    b = FaultTreeBuilder()
    b.events([("a", 0.1), ("b", 0.1), ("c", 0.1), ("d", 0.1)])
    b.atleast("vote", 2, "a", "b", "c")
    b.or_("top", "vote", "d")
    return b.build("top")


class TestRestrict:
    def test_forcing_or_child_true_collapses(self, cooling_tree):
        restriction = restrict(cooling_tree, "pump1", {"a": True})
        assert restriction.is_constant and restriction.constant is True

    def test_forcing_all_or_children_false_collapses(self, cooling_tree):
        restriction = restrict(cooling_tree, "pump1", {"a": False, "b": False})
        assert restriction.is_constant and restriction.constant is False

    def test_residual_tree_drops_fixed_events(self, cooling_tree):
        restriction = restrict(cooling_tree, "pumps", {"a": True})
        residual = restriction.tree
        assert residual is not None
        assert "a" not in residual.events
        assert set(residual.events) == {"c", "d"}

    def test_event_root(self, cooling_tree):
        restriction = restrict(cooling_tree, "a", {})
        assert not restriction.is_constant
        assert fails_top(restriction.tree, {"a"})
        assert restrict(cooling_tree, "a", {"a": True}).constant is True

    def test_unknown_names_rejected(self, cooling_tree):
        with pytest.raises(UnknownNodeError):
            restrict(cooling_tree, "pump1", {"ghost": True})
        with pytest.raises(UnknownNodeError):
            restrict(cooling_tree, "ghost", {})

    def test_atleast_threshold_reduction(self):
        tree = _vote_tree()
        # Fixing a failed reduces 2-of-3 over {b, c} to 1-of-2 (an OR).
        restriction = restrict(tree, "vote", {"a": True})
        residual = restriction.tree
        assert residual is not None
        assert fails(residual, {"b"}, "vote")
        assert fails(residual, {"c"}, "vote")
        # Fixing a functional leaves 2-of-2 (an AND).
        restriction = restrict(tree, "vote", {"a": False})
        residual = restriction.tree
        assert not fails(residual, {"b"}, "vote")
        assert fails(residual, {"b", "c"}, "vote")

    @given(
        fault_trees(max_events=6, max_gates=5),
        st.dictionaries(st.integers(0, 5), st.booleans(), max_size=4),
    )
    def test_restriction_semantics(self, tree, raw_assignment):
        """The residual agrees with the original under every completion.

        Free events may disappear from the residual tree when they only
        occur under gates the assignment collapsed; the property then
        says they are *irrelevant*: dropping them from the scenario must
        not change the outcome.
        """
        names = sorted(tree.events)
        assignment = {
            names[i]: value for i, value in raw_assignment.items() if i < len(names)
        }
        restriction = restrict(tree, tree.top, assignment)
        free = [n for n in names if n not in assignment]
        fixed_failed = {n for n, v in assignment.items() if v}
        residual_events = (
            frozenset() if restriction.is_constant else frozenset(restriction.tree.events)
        )
        for r in range(len(free) + 1):
            for combo in itertools.combinations(free, r):
                scenario = frozenset(combo) | fixed_failed
                expected = fails_top(tree, scenario)
                if restriction.is_constant:
                    assert restriction.constant == expected
                else:
                    kept = frozenset(combo) & residual_events
                    assert fails_top(restriction.tree, kept) == expected
