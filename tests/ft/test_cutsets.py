"""Unit and property tests of the cutset algebra."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ft.cutsets import (
    CutSetList,
    cutset_probability,
    minimize,
    verify_minimal,
)

PROBS = {"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.4, "e": 0.5}


def _family(*sets):
    return [frozenset(s) for s in sets]


class TestMinimize:
    def test_removes_supersets(self):
        family = _family({"a"}, {"a", "b"}, {"b", "c"})
        assert set(minimize(family)) == {frozenset({"a"}), frozenset({"b", "c"})}

    def test_removes_duplicates(self):
        family = _family({"a", "b"}, {"b", "a"})
        assert minimize(family) == [frozenset({"a", "b"})]

    def test_empty_set_dominates_all(self):
        family = _family({"a"}, set(), {"b", "c"})
        assert minimize(family) == [frozenset()]

    def test_empty_family(self):
        assert minimize([]) == []

    @given(
        st.lists(
            st.frozensets(st.sampled_from("abcdefgh"), min_size=1, max_size=5),
            max_size=40,
        )
    )
    def test_against_brute_force(self, family):
        expected = {
            c
            for c in set(family)
            if not any(o <= c and o != c for o in set(family))
        }
        result = minimize(family)
        assert set(result) == expected
        assert len(result) == len(set(result))
        assert verify_minimal(result)

    @given(
        st.lists(
            st.frozensets(
                st.sampled_from([f"e{i:02d}" for i in range(20)]), max_size=16
            ),
            max_size=30,
        )
    )
    def test_mask_kernel_equals_pairwise_minimisation(self, family):
        """Every size, the empty set and members past the submask
        enumeration limit (12 elements) included."""
        members = set(family)
        expected = {c for c in members if not any(o < c for o in members)}
        result = minimize(family)
        assert sorted(result, key=sorted) == sorted(expected, key=sorted)

    def test_large_sets_use_fallback_path(self):
        # Sets bigger than the submask-enumeration limit exercise the
        # kept-list scan.
        big = frozenset(f"x{i}" for i in range(20))
        small = frozenset(["x0", "x1"])
        assert set(minimize([big, small])) == {small}


class TestCutsetProbability:
    def test_product(self):
        assert math.isclose(
            cutset_probability(frozenset({"a", "b"}), PROBS), 0.1 * 0.2
        )

    def test_empty_cutset_is_certain(self):
        assert cutset_probability(frozenset(), PROBS) == 1.0


class TestCutSetList:
    def test_sorting_by_probability(self):
        cl = CutSetList.from_cutsets(_family({"a"}, {"e"}, {"b", "c"}), PROBS)
        assert cl[0] == frozenset({"e"})  # 0.5 first
        assert cl[1] == frozenset({"a"})
        assert len(cl) == 3

    def test_rare_event_is_sum(self):
        cl = CutSetList.from_cutsets(_family({"a"}, {"b"}), PROBS)
        assert math.isclose(cl.rare_event(), 0.1 + 0.2)

    def test_mcub_vs_rare_event_ordering(self):
        cl = CutSetList.from_cutsets(_family({"a"}, {"b"}, {"c"}), PROBS)
        exact_union = 1 - 0.9 * 0.8 * 0.7  # disjoint events: independent union
        assert math.isclose(cl.min_cut_upper_bound(), exact_union, rel_tol=1e-12)
        assert cl.min_cut_upper_bound() <= cl.rare_event()

    def test_mcub_saturates_at_one(self):
        probs = {"a": 1.0}
        cl = CutSetList.from_cutsets(_family({"a"}), probs)
        assert cl.min_cut_upper_bound() == 1.0

    def test_inclusion_exclusion_exact_for_overlapping(self):
        # Cutsets {a,c} and {b,c} overlap on c; inclusion-exclusion is exact.
        cl = CutSetList.from_cutsets(_family({"a", "c"}, {"b", "c"}), PROBS)
        expected = 0.1 * 0.3 + 0.2 * 0.3 - 0.1 * 0.2 * 0.3
        assert math.isclose(cl.inclusion_exclusion(), expected, rel_tol=1e-12)

    def test_inclusion_exclusion_truncation_brackets(self):
        family = _family({"a"}, {"b"}, {"c"}, {"d"})
        cl = CutSetList.from_cutsets(family, PROBS)
        exact = cl.inclusion_exclusion()
        upper = cl.inclusion_exclusion(max_terms=1)
        lower = cl.inclusion_exclusion(max_terms=2)
        assert lower <= exact <= upper

    def test_inclusion_exclusion_guard(self):
        probs = {f"x{i}": 0.01 for i in range(30)}
        family = [frozenset({f"x{i}"}) for i in range(30)]
        cl = CutSetList.from_cutsets(family, probs)
        with pytest.raises(ValueError):
            cl.inclusion_exclusion()
        assert cl.inclusion_exclusion(max_terms=1) > 0.0

    def test_truncate(self):
        cl = CutSetList.from_cutsets(_family({"a"}, {"a", "b"}, {"e"}), PROBS)
        kept = cl.truncate(0.15)
        assert set(kept) == {frozenset({"e"})}  # 0.5 survives, 0.1 cut

    def test_filtered_and_events_involved(self):
        cl = CutSetList.from_cutsets(_family({"a"}, {"b", "c"}), PROBS)
        only_small = cl.filtered(lambda c: len(c) == 1)
        assert set(only_small) == {frozenset({"a"})}
        assert cl.events_involved() == {"a", "b", "c"}

    def test_size_histogram(self):
        cl = CutSetList.from_cutsets(
            _family({"a"}, {"b"}, {"c", "d"}), PROBS
        )
        assert cl.size_histogram() == {1: 2, 2: 1}

    def test_from_cutsets_minimises_by_default(self):
        cl = CutSetList.from_cutsets(_family({"a"}, {"a", "b"}), PROBS)
        assert set(cl) == {frozenset({"a"})}

    @given(
        st.lists(
            st.frozensets(st.sampled_from("abcde"), min_size=1, max_size=3),
            min_size=1,
            max_size=15,
        )
    )
    def test_aggregation_ordering_property(self, family):
        """For any MCS family: MCUB <= rare-event sum; both non-negative."""
        cl = CutSetList.from_cutsets(family, PROBS)
        assert 0.0 <= cl.min_cut_upper_bound() <= min(1.0, cl.rare_event()) + 1e-12
