"""Tests of the fluent builder and the validation/lint layer."""

import pytest

from repro.errors import DuplicateNameError, ModelError, UnknownNodeError
from repro.ft.builder import FaultTreeBuilder
from repro.ft.tree import GateType
from repro.ft.validate import tree_stats
from repro.lint import Severity, lint


class TestBuilder:
    def test_chaining(self):
        tree = (
            FaultTreeBuilder("t")
            .event("a", 0.1)
            .event("b", 0.2)
            .or_("top", "a", "b")
            .build("top")
        )
        assert set(tree.events) == {"a", "b"}
        assert tree.gates["top"].gate_type is GateType.OR

    def test_events_bulk(self):
        b = FaultTreeBuilder().events([("a", 0.1), ("b", 0.2)])
        assert b.has_node("a") and b.has_node("b")

    def test_forward_references_allowed(self):
        b = FaultTreeBuilder()
        b.or_("top", "a", "b")  # children declared later
        b.event("a", 0.1).event("b", 0.2)
        tree = b.build("top")
        assert tree.children("top") == ("a", "b")

    def test_duplicate_rejected(self):
        b = FaultTreeBuilder().event("a", 0.1)
        with pytest.raises(DuplicateNameError):
            b.event("a", 0.2)
        with pytest.raises(DuplicateNameError):
            b.or_("a", "a")

    def test_top_must_be_declared_gate(self):
        b = FaultTreeBuilder().event("a", 0.1)
        with pytest.raises(ModelError):
            b.build("a")
        with pytest.raises(ModelError):
            b.build("ghost")

    def test_atleast(self):
        b = FaultTreeBuilder().events([("a", 0.1), ("b", 0.1), ("c", 0.1)])
        tree = b.atleast("top", 2, "a", "b", "c").build("top")
        assert tree.gates["top"].k == 2

    def test_duplicate_gate_name_rejected(self):
        b = FaultTreeBuilder().events([("a", 0.1), ("b", 0.1)])
        b.or_("g", "a", "b")
        with pytest.raises(DuplicateNameError):
            b.and_("g", "a", "b")
        with pytest.raises(DuplicateNameError):
            b.event("g", 0.1)

    def test_unknown_child_rejected_at_build(self):
        b = FaultTreeBuilder().event("a", 0.1)
        b.or_("top", "a", "ghost")
        with pytest.raises(UnknownNodeError):
            b.build("top")


class TestValidate:
    """Structural checks run through the linter's SD1xx/SD2xx rules."""

    def test_clean_tree_has_no_warnings(self, cooling_tree):
        assert lint(cooling_tree).diagnostics == ()

    def test_unreachable_nodes_warn(self):
        b = FaultTreeBuilder()
        b.event("a", 0.1).event("orphan", 0.2)
        b.or_("top", "a").or_("dead", "orphan")
        report = lint(b.build("top"))
        assert _findings(report, "SD101") == {("dead", Severity.WARNING)}
        assert _findings(report, "SD102") == {("orphan", Severity.WARNING)}

    def test_extreme_probabilities_flagged(self):
        b = FaultTreeBuilder()
        b.event("certain", 1.0).event("never", 0.0).event("big", 0.5)
        b.or_("top", "certain", "never", "big")
        report = lint(b.build("top"))
        assert _findings(report, "SD202") == {("certain", Severity.WARNING)}
        assert _findings(report, "SD203") == {("never", Severity.INFO)}
        assert _findings(report, "SD201") == {("big", Severity.WARNING)}

    def test_single_input_atleast_is_a_pass_through(self):
        """A one-child ATLEAST must have ``k=1``, so it passes its input
        through like any other single-input gate."""
        b = FaultTreeBuilder().event("a", 0.01)
        b.atleast("vote", 1, "a").or_("top", "vote", "a")
        report = lint(b.build("top"))
        assert _findings(report, "SD103") == {("vote", Severity.INFO)}

    def test_boundary_probability_is_not_flagged_as_large(self):
        """Exactly 0.1 sits on the rare-event boundary — not above it."""
        b = FaultTreeBuilder().event("edge", 0.1).event("a", 0.01)
        b.or_("top", "edge", "a")
        report = lint(b.build("top"))
        assert not any(d.node == "edge" for d in report.diagnostics)

    def test_single_input_gate_is_info(self):
        b = FaultTreeBuilder().event("a", 0.1)
        b.or_("wrap", "a").or_("top", "wrap")
        report = lint(b.build("top"))
        assert _findings(report, "SD103") == {
            ("wrap", Severity.INFO),
            ("top", Severity.INFO),
        }
        assert not report.warnings  # pass-throughs are infos only


def _findings(report, code):
    """``{(node, severity)}`` of the report's findings under ``code``."""
    return {(d.node, d.severity) for d in report.diagnostics if d.code == code}


class TestTreeStats:
    def test_counts(self, cooling_tree):
        stats = tree_stats(cooling_tree)
        assert stats.n_events == 5
        assert stats.n_gates == 4
        assert stats.n_and == 1
        assert stats.n_or == 3
        assert stats.n_atleast == 0
        assert stats.max_depth == 4  # event -> pump -> pumps -> cooling
        assert stats.mean_fan_in == pytest.approx((2 + 2 + 2 + 2) / 4)
