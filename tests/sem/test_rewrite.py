"""The equivalence-checked rewrite engine (`sdft simplify`)."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings

from repro.bdd import exact_probability, trees_equivalent
from repro.core.sdft import SdFaultTreeBuilder
from repro.ctmc.builders import triggered_repairable
from repro.ft.builder import FaultTreeBuilder
from repro.ft.scenario import fails_top
from repro.ft.tree import GateType
from repro.sem import simplify
from tests.strategies import fault_trees


class TestStructuralRewrites:
    def test_single_child_gate_collapses(self):
        b = FaultTreeBuilder("wrap")
        b.event("a", 0.1).event("b", 0.2)
        b.or_("wrap", "a")
        b.and_("top", "wrap", "b")
        result = simplify(b.build("top"))
        assert result.changed
        assert "wrap" not in result.model.gates
        assert result.model.gates["top"].children == ("a", "b")

    def test_same_type_single_parent_chains_flatten(self):
        b = FaultTreeBuilder("chain")
        b.event("a", 0.1).event("b", 0.2).event("c", 0.3)
        b.or_("inner", "b", "c")
        b.or_("top", "a", "inner")
        result = simplify(b.build("top"))
        assert set(result.model.gates) == {"top"}
        assert set(result.model.gates["top"].children) == {"a", "b", "c"}

    def test_pass_through_collapsed(self):
        b = FaultTreeBuilder("wrap")
        b.event("a", 0.1).event("b", 0.2)
        b.or_("wrap", "a")
        b.and_("top", "wrap", "b")
        result = simplify(b.build("top"))
        assert "wrap" not in result.model.gates
        assert set(result.model.gates["top"].children) == {"a", "b"}

    def test_same_type_flattening(self):
        b = FaultTreeBuilder("flatten")
        b.events([("a", 0.1), ("b", 0.1), ("c", 0.1)])
        b.or_("inner", "a", "b")
        b.or_("top", "inner", "c")
        result = simplify(b.build("top"))
        assert set(result.model.gates) == {"top"}
        assert set(result.model.gates["top"].children) == {"a", "b", "c"}

    def test_duplicate_gates_merge(self):
        b = FaultTreeBuilder("dup")
        b.event("a", 0.1).event("b", 0.2).event("c", 0.3)
        b.and_("left", "a", "b")
        b.and_("right", "b", "a")  # same function, different spelling
        b.or_("top", "left", "right", "c")
        result = simplify(b.build("top"))
        kinds = result.counts_by_kind()
        assert kinds.get("duplicate-gate", 0) >= 1
        assert len(result.model.gates) < 3

    def test_constant_event_propagates(self):
        b = FaultTreeBuilder("const")
        b.event("never", 0.0).event("a", 0.1).event("b", 0.2)
        b.or_("top", "b", "mid")
        b.and_("mid", "never", "a")  # certainly-false subtree
        result = simplify(b.build("top"))
        assert result.model.gates["top"].children == ("b",)
        assert "never" not in result.model.events

    def test_degenerate_votes_rewrite(self):
        b = FaultTreeBuilder("vote")
        b.event("a", 0.1).event("b", 0.2)
        b.atleast("top", 2, "a", "b")  # 2-of-2 is an AND
        result = simplify(b.build("top"))
        assert result.counts_by_kind().get("degenerate-vote", 0) == 1

    def test_chain_of_pass_throughs(self):
        b = FaultTreeBuilder("chain")
        b.event("a", 0.1).event("x", 0.1)
        b.or_("w1", "a").or_("w2", "w1").or_("w3", "w2")
        b.and_("top", "w3", "x")
        result = simplify(b.build("top"))
        assert set(result.model.gates) == {"top"}
        assert set(result.model.gates["top"].children) == {"a", "x"}

    def test_shared_gates_not_inlined(self):
        b = FaultTreeBuilder("shared")
        b.events([("a", 0.1), ("b", 0.1), ("c", 0.1), ("d", 0.1)])
        b.or_("shared", "a", "b")
        b.or_("left", "shared", "c")
        b.or_("right", "shared", "d")
        b.and_("top", "left", "right")
        result = simplify(b.build("top"))
        # shared has two parents: it must survive.  (Under an AND of
        # "left" and "shared" itself, absorption would drop "left".)
        assert "shared" in result.model.gates

    def test_mixed_types_not_flattened(self):
        b = FaultTreeBuilder("mixed")
        b.events([("a", 0.1), ("b", 0.1), ("c", 0.1)])
        b.and_("inner", "a", "b")
        b.or_("top", "inner", "c")
        result = simplify(b.build("top"))
        assert "inner" in result.model.gates

    def test_single_input_top_kept(self):
        b = FaultTreeBuilder("single")
        b.event("a", 0.1)
        b.or_("top", "a")
        result = simplify(b.build("top"))
        assert result.model.top == "top"
        assert result.model.gates["top"].children == ("a",)

    def test_atleast_untouched(self):
        b = FaultTreeBuilder("vote")
        b.events([("a", 0.1), ("b", 0.1), ("c", 0.1)])
        b.atleast("vote", 2, "a", "b", "c")
        b.or_("top", "vote")
        result = simplify(b.build("top"))
        assert result.model.gates["vote"].gate_type is GateType.ATLEAST

    def test_unreachable_pruned(self):
        b = FaultTreeBuilder("orphan")
        b.event("a", 0.1).event("orphan", 0.2)
        b.or_("top", "a").or_("dead", "orphan")
        result = simplify(b.build("top"))
        assert "dead" not in result.model.gates
        assert "orphan" not in result.model.events

    def test_unreachable_nodes_removed(self):
        b = FaultTreeBuilder("prune")
        b.events([("a", 0.1), ("orphan", 0.2)])
        b.or_("top", "a")
        b.or_("dead", "orphan")
        result = simplify(b.build("top"))
        assert set(result.model.events) == {"a"}
        assert set(result.model.gates) == {"top"}

    def test_tight_tree_is_untouched(self):
        b = FaultTreeBuilder("tight")
        b.event("a", 0.1).event("b", 0.2)
        b.and_("top", "a", "b")
        tree = b.build("top")
        result = simplify(tree)
        assert not result.changed
        assert result.model is tree


class TestVerification:
    def test_every_simplification_is_equivalence_verified(self):
        b = FaultTreeBuilder("vacuous")
        b.event("a", 0.1).event("b", 0.2)
        b.and_("both", "a", "b")
        b.or_("top", "a", "both")
        tree = b.build("top")
        result = simplify(tree)
        assert result.verified_scopes >= 1
        assert not result.budget_hit
        assert trees_equivalent(tree, result.model)

    def test_budget_overrun_keeps_the_original(self):
        b = FaultTreeBuilder("wide")
        for i in range(14):
            b.event(f"e{i}", 0.01)
        b.atleast("inner", 7, *[f"e{i}" for i in range(14)])
        b.or_("wrap", "inner")
        b.or_("top", "wrap")
        result = simplify(b.build("top"), node_budget=3)
        assert result.budget_hit
        assert not result.changed  # the unverifiable round was reverted

    def test_exact_probability_is_preserved(self):
        from repro.models import model_1, model_2

        for tree in (model_1(), model_2()):
            result = simplify(tree)
            assert result.removed_gates > 0
            assert exact_probability(result.model) == pytest.approx(
                exact_probability(tree), rel=1e-12
            )


class TestSdProtections:
    def sd_fixture(self):
        b = SdFaultTreeBuilder("sd")
        b.static_event("x", 0.01).static_event("a", 0.02)
        b.dynamic_event("d", triggered_repairable(0.01, 0.1))
        b.or_("source", "x", "a")
        b.or_("wrap", "source")
        b.or_("top", "wrap", "d")
        b.trigger("source", "d")
        return b.build("top")

    def test_trigger_source_gates_survive_by_name(self):
        result = simplify(self.sd_fixture())
        assert "source" in result.model.gates
        assert result.model.triggers  # wiring intact

    def test_dynamic_events_are_never_pruned(self):
        result = simplify(self.sd_fixture())
        assert "d" in result.model.dynamic_events

    def test_unprotected_wrapper_still_collapses(self):
        result = simplify(self.sd_fixture())
        assert "wrap" not in result.model.gates


def _fat_sdft():
    """An SD model with wrapper gates the verified diet removes."""
    from repro.ctmc.builders import repairable

    b = SdFaultTreeBuilder("fat-sd")
    b.static_event("a", 3e-3).static_event("c", 3e-3)
    b.dynamic_event("b", repairable(0.001, 0.05))
    b.dynamic_event("d", triggered_repairable(0.001, 0.05))
    b.or_("pump1", "a", "b").or_("pump2", "c", "d")
    b.and_("pumps", "pump1", "pump2")
    b.or_("wrap", "pumps")
    b.or_("top", "wrap")
    b.trigger("pump1", "d")
    return b.build("top")


class TestAnalysisComposition:
    """The diet is a model transformation: ``analyze(simplify(m).model)``."""

    def test_answer_is_unchanged(self):
        from repro.core.analyzer import AnalysisOptions, analyze
        from repro.service.session import assert_bit_identical

        fat = _fat_sdft()
        result = simplify(fat)
        assert result.changed
        assert_bit_identical(
            analyze(result.model, AnalysisOptions()),
            analyze(fat, AnalysisOptions()),
        )

    def test_lint_reads_the_user_model(self):
        """Lint the model the user wrote, then analyse the dieted one:
        the findings name the wrapper gates the analysis never sees."""
        from repro.core.analyzer import AnalysisOptions, analyze
        from repro.lint import lint

        fat = _fat_sdft()
        dieted = simplify(fat).model
        assert "wrap" in {d.node for d in lint(fat).diagnostics}
        assert "wrap" not in {d.node for d in lint(dieted).diagnostics}
        assert analyze(dieted, AnalysisOptions()).failure_probability > 0.0


class TestAcceptanceBwr:
    def test_bwr_diet_is_measurable_and_verified(self):
        from repro.models.bwr import build_bwr

        model = build_bwr()
        result = simplify(model)
        assert result.gates_after < result.gates_before
        assert result.removed_gates >= 10  # "measurably", not marginally
        assert result.verified_scopes >= 1
        assert not result.budget_hit
        # The top-event scope of the static view is provably equivalent.
        assert trees_equivalent(model.structure, result.model.structure)


class TestPropertyPreservation:
    @given(tree=fault_trees(max_events=6, max_gates=6))
    @settings(max_examples=60, deadline=None)
    def test_simplify_preserves_bdd_exact_probability(self, tree):
        result = simplify(tree)
        assert exact_probability(result.model) == pytest.approx(
            exact_probability(tree), rel=1e-12, abs=1e-15
        )

    @given(
        tree=fault_trees(
            max_events=6, max_gates=6, min_probability=0.01, max_probability=0.99
        )
    )
    @settings(deadline=None)
    def test_function_preserved(self, tree):
        """With no constant events the whole structure function survives."""
        simplified = simplify(tree).model
        names = sorted(tree.events_under(tree.top))
        for r in range(len(names) + 1):
            for combo in itertools.combinations(names, r):
                scenario = frozenset(combo)
                assert fails_top(tree, scenario) == fails_top(
                    simplified, scenario & frozenset(simplified.events)
                )

    @given(fault_trees(max_events=6, max_gates=6))
    @settings(deadline=None)
    def test_never_grows(self, tree):
        result = simplify(tree)
        assert len(result.model.gates) <= len(tree.gates)

    @given(fault_trees(max_events=6, max_gates=6))
    @settings(deadline=None)
    def test_idempotent(self, tree):
        once = simplify(tree).model
        twice = simplify(once).model
        assert set(once.gates) == set(twice.gates)
        assert all(
            once.gates[n].children == twice.gates[n].children for n in once.gates
        )
