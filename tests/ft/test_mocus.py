"""MOCUS tests: oracle comparisons, cutoff semantics, work limits."""

import pytest
from hypothesis import given

from repro.errors import CutoffError, InjectedFaultError, UnknownNodeError
from repro.ft.builder import FaultTreeBuilder
from repro.ft.cutsets import cutset_probability
from repro.ft.mocus import MocusOptions, constrained_mcs, mocus
from repro.ft.scenario import minimal_failure_sets
from repro.robust import faults

from tests.strategies import fault_trees


class TestAgainstOracle:
    def test_paper_example_7(self, cooling_tree):
        result = mocus(cooling_tree)
        assert set(result.cutsets.cutsets) == {
            frozenset({"e"}),
            frozenset({"a", "c"}),
            frozenset({"a", "d"}),
            frozenset({"b", "c"}),
            frozenset({"b", "d"}),
        }

    @given(fault_trees(max_events=7, max_gates=6, min_probability=0.01))
    def test_matches_brute_force_without_cutoff(self, tree):
        expected = set(minimal_failure_sets(tree))
        result = mocus(tree, MocusOptions(cutoff=0.0))
        assert set(result.cutsets.cutsets) == expected

    @given(fault_trees(max_events=7, max_gates=6, min_probability=0.05))
    def test_cutoff_keeps_all_above_threshold(self, tree):
        """With probabilities >= 0.05 and cutoff far below any product of
        seven factors, nothing may be lost."""
        cutoff = 1e-12
        expected = {
            c
            for c in minimal_failure_sets(tree)
            if cutset_probability(
                c, {n: e.probability for n, e in tree.events.items()}
            )
            > cutoff
        }
        result = mocus(tree, MocusOptions(cutoff=cutoff))
        assert set(result.cutsets.cutsets) == expected


class TestCutoff:
    def test_cutoff_drops_improbable_cutsets(self, cooling_tree):
        # Probabilities: {a,c} = 9e-6, {a,d} = {b,c} = {e} = 3e-6,
        # {b,d} = 1e-6.  A cutoff of 4e-6 keeps only {a,c}.
        result = mocus(cooling_tree, MocusOptions(cutoff=4e-6))
        assert set(result.cutsets.cutsets) == {frozenset({"a", "c"})}

    def test_cutoff_boundary_is_exclusive(self, cooling_tree):
        # Cutsets exactly at the cutoff are dropped ("above" the cutoff).
        result = mocus(cooling_tree, MocusOptions(cutoff=9e-6))
        assert frozenset({"a", "c"}) not in set(result.cutsets.cutsets)

    def test_stats_populated(self, cooling_tree):
        result = mocus(cooling_tree)
        assert result.stats.completed >= result.stats.minimal
        assert result.stats.partials_expanded > 0


class TestLimits:
    def _wide_tree(self, n: int):
        b = FaultTreeBuilder()
        names = []
        for i in range(n):
            b.event(f"x{i}", 0.5)
            names.append(f"x{i}")
        b.or_("left", *names[: n // 2])
        b.or_("right", *names[n // 2 :])
        b.and_("top", "left", "right")
        return b.build("top")

    def test_max_partials_raises(self):
        tree = self._wide_tree(20)
        with pytest.raises(CutoffError):
            mocus(tree, MocusOptions(cutoff=0.0, max_partials=10))

    def test_max_cutsets_raises(self):
        tree = self._wide_tree(20)
        with pytest.raises(CutoffError):
            mocus(tree, MocusOptions(cutoff=0.0, max_cutsets=5))

    def test_fault_armed_before_the_call_trips_mid_search(self):
        """The fault poll is chosen once per call, then runs every expansion."""
        tree = self._wide_tree(20)
        polls = []

        def on_tenth_poll() -> bool:
            polls.append(None)
            return len(polls) == 10

        with faults.inject("mocus", when=on_tenth_poll):
            with pytest.raises(InjectedFaultError):
                mocus(tree, MocusOptions(cutoff=0.0))
        assert len(polls) == 10
        assert mocus(tree, MocusOptions(cutoff=0.0)).stats.partials_expanded > 10

    def test_unknown_top_rejected(self, cooling_tree):
        with pytest.raises(UnknownNodeError):
            mocus(cooling_tree, top="ghost")
        with pytest.raises(UnknownNodeError):
            mocus(cooling_tree, top="a")  # events cannot be tops


class TestSubTop:
    def test_mcs_of_inner_gate(self, cooling_tree):
        result = mocus(cooling_tree, top="pumps")
        assert set(result.cutsets.cutsets) == {
            frozenset({"a", "c"}),
            frozenset({"a", "d"}),
            frozenset({"b", "c"}),
            frozenset({"b", "d"}),
        }


class TestAtleast:
    def test_two_of_three(self):
        b = FaultTreeBuilder()
        b.events([("a", 0.1), ("b", 0.1), ("c", 0.1)])
        b.atleast("top", 2, "a", "b", "c")
        result = mocus(b.build("top"))
        assert set(result.cutsets.cutsets) == {
            frozenset({"a", "b"}),
            frozenset({"a", "c"}),
            frozenset({"b", "c"}),
        }


class TestConstrainedMcs:
    def test_assumed_failure_fails_gate(self, cooling_tree):
        # With a assumed failed, pump1 is already failed: True.
        assert (
            constrained_mcs(
                cooling_tree, "pump1", frozenset(), frozenset({"a"})
            )
            is True
        )

    def test_impossible_gate(self, cooling_tree):
        # Universe empty, nothing assumed: pump1 can never fail.
        assert constrained_mcs(cooling_tree, "pump1", frozenset()) is False

    def test_restricted_universe(self, cooling_tree):
        # Only b may fail: pump1's minimal failure sets over {b} are {{b}}.
        result = constrained_mcs(cooling_tree, "pump1", frozenset({"b"}))
        assert result == [frozenset({"b"})]

    def test_combined_universe_and_assumptions(self, cooling_tree):
        # pumps = AND(pump1, pump2); assume a failed (fails pump1),
        # universe {c, d}: minimal sets are {c} and {d}.
        result = constrained_mcs(
            cooling_tree, "pumps", frozenset({"c", "d"}), frozenset({"a"})
        )
        assert set(result) == {frozenset({"c"}), frozenset({"d"})}

    def test_events_outside_universe_are_functional(self, cooling_tree):
        # pumps with universe {c} and nothing assumed: pump1 can never
        # fail (a, b outside universe), so pumps can never fail.
        assert (
            constrained_mcs(cooling_tree, "pumps", frozenset({"c"})) is False
        )
