"""Tests of common-cause-failure models and expansion."""

import math

import pytest

from repro.bdd import exact_probability
from repro.errors import InvalidProbabilityError, ModelError, UnknownNodeError
from repro.ft.builder import FaultTreeBuilder
from repro.ft.ccf import alpha_factor_group, apply_ccf, beta_factor_group
from repro.ft.mocus import MocusOptions, mocus


def _two_pump_tree():
    b = FaultTreeBuilder()
    b.event("p1", 1e-3).event("p2", 1e-3)
    b.and_("top", "p1", "p2")
    return b.build("top")


class TestBetaFactor:
    def test_probability_split(self):
        group = beta_factor_group("G", ["p1", "p2"], 1e-3, beta=0.1)
        assert math.isclose(group.independent["p1"], 0.9e-3)
        assert len(group.common) == 1
        covered, probability = group.common[0]
        assert covered == {"p1", "p2"}
        assert math.isclose(probability, 1e-4)

    def test_validation(self):
        with pytest.raises(InvalidProbabilityError):
            beta_factor_group("G", ["p1", "p2"], 1e-3, beta=1.5)
        with pytest.raises(ModelError):
            beta_factor_group("G", ["p1"], 1e-3, beta=0.1)


class TestAlphaFactor:
    def test_two_member_group(self):
        group = alpha_factor_group("G", ["p1", "p2"], 1e-3, [0.95, 0.05])
        # alpha_t = 1*0.95 + 2*0.05 = 1.05.
        assert math.isclose(group.independent["p1"], 0.95 / 1.05 * 1e-3)
        assert len(group.common) == 1
        _, q2 = group.common[0]
        assert math.isclose(q2, 0.05 / 1.05 * 1e-3)

    def test_three_member_group_subsets(self):
        group = alpha_factor_group(
            "G", ["a", "b", "c"], 1e-3, [0.9, 0.07, 0.03]
        )
        sizes = sorted(len(covered) for covered, _ in group.common)
        assert sizes == [2, 2, 2, 3]

    def test_alphas_must_sum_to_one(self):
        with pytest.raises(InvalidProbabilityError):
            alpha_factor_group("G", ["a", "b"], 1e-3, [0.5, 0.4])

    def test_alpha_count_must_match(self):
        with pytest.raises(ModelError):
            alpha_factor_group("G", ["a", "b"], 1e-3, [1.0])


class TestApplyCcf:
    def test_structure(self):
        tree = _two_pump_tree()
        group = beta_factor_group("G", ["p1", "p2"], 1e-3, beta=0.1)
        expanded = apply_ccf(tree, [group])
        # Members became OR gates over the independent part and the CC event.
        assert expanded.is_gate("p1")
        assert "p1#ind" in expanded.events
        assert "G#cc0" in expanded.events
        # The original top logic still references the same names.
        assert expanded.gates["top"].children == ("p1", "p2")

    def test_ccf_dominates_double_failure(self):
        tree = _two_pump_tree()
        without = exact_probability(tree)  # 1e-6
        group = beta_factor_group("G", ["p1", "p2"], 1e-3, beta=0.1)
        with_ccf = exact_probability(apply_ccf(tree, [group]))
        # The common-cause term contributes ~1e-4, dwarfing 1e-6.
        assert with_ccf > 50 * without
        assert math.isclose(with_ccf, 1e-4, rel_tol=0.05)

    def test_ccf_cutsets(self):
        tree = _two_pump_tree()
        group = beta_factor_group("G", ["p1", "p2"], 1e-3, beta=0.1)
        cutsets = mocus(apply_ccf(tree, [group]), MocusOptions(cutoff=0.0)).cutsets
        assert frozenset({"G#cc0"}) in set(cutsets.cutsets)
        assert frozenset({"p1#ind", "p2#ind"}) in set(cutsets.cutsets)
        # Mixed cutsets (one independent + the CC event) are non-minimal.
        assert len(cutsets) == 2

    def test_unknown_member_rejected(self):
        tree = _two_pump_tree()
        group = beta_factor_group("G", ["p1", "ghost"], 1e-3, beta=0.1)
        with pytest.raises(UnknownNodeError):
            apply_ccf(tree, [group])

    def test_overlapping_groups_rejected(self):
        tree = _two_pump_tree()
        g1 = beta_factor_group("G1", ["p1", "p2"], 1e-3, beta=0.1)
        g2 = beta_factor_group("G2", ["p2", "p1"], 1e-3, beta=0.1)
        with pytest.raises(ModelError):
            apply_ccf(tree, [g1, g2])
