"""The semantic rules SD501–SD507."""

from __future__ import annotations

from repro.core.sdft import SdFaultTreeBuilder
from repro.ctmc.builders import triggered_repairable
from repro.ft.builder import FaultTreeBuilder
from repro.lint import Severity, lint
from tests.lint.helpers import codes_of, findings_for


def race_model():
    """The seeded trigger-race defect (see tests/sem/test_triggers.py)."""
    b = SdFaultTreeBuilder("race")
    b.static_event("x", 0.01).static_event("a", 0.02)
    b.dynamic_event(
        "d-spare", triggered_repairable(0.01, 0.1, passive_failure_rate=0.005)
    )
    b.dynamic_event("d2", triggered_repairable(0.01, 0.1))
    b.or_("g1", "x", "a")
    b.or_("g2", "x", "d-spare")
    b.or_("top", "g1", "g2", "d2")
    b.trigger("g1", "d-spare")
    b.trigger("g2", "d2")
    return b.build("top")


def vacuous_model():
    """The seeded vacuous-operand defect: ``OR(a, AND(a, b))``."""
    b = FaultTreeBuilder("vacuous")
    b.event("a", 0.01).event("b", 0.02)
    b.and_("both", "a", "b")
    b.or_("top", "a", "both")
    return b.build("top")


class TestSd501TriggerRace:
    def test_seeded_race_is_flagged(self):
        findings = findings_for(race_model(), "SD501")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.node == "g1"
        assert "g2" in finding.message and "d-spare" in finding.message
        assert finding.severity is Severity.WARNING

    def test_race_free_wiring_is_clean(self):
        b = SdFaultTreeBuilder("clean")
        b.static_event("x", 0.01)
        b.dynamic_event("d", triggered_repairable(0.01, 0.1))
        b.or_("src", "x")
        b.or_("top", "src", "d")
        b.trigger("src", "d")
        assert "SD501" not in codes_of(b.build("top"))


class TestSd502InstantFailure:
    def test_cold_start_chain_is_noted(self):
        findings = findings_for(race_model(), "SD502")
        assert [f.node for f in findings] == ["d-spare"]
        assert findings[0].severity is Severity.INFO

    def test_delay_only_chain_is_clean(self):
        b = SdFaultTreeBuilder("warm")
        b.static_event("x", 0.01)
        b.dynamic_event("d", triggered_repairable(0.01, 0.1))
        b.or_("src", "x")
        b.or_("top", "src", "d")
        b.trigger("src", "d")
        assert "SD502" not in codes_of(b.build("top"))


class TestSd503VacuousOperand:
    def test_seeded_vacuous_operand_is_flagged(self):
        findings = findings_for(vacuous_model(), "SD503")
        assert [(f.node, True) for f in findings] == [("top", True)]
        assert "both" in findings[0].message

    def test_constant_operands_are_left_to_sd203(self):
        # A zero-probability event is vacuous in any OR, but that story
        # belongs to the probabilistic rules — SD503 must stay silent.
        b = FaultTreeBuilder("zero")
        b.event("a", 0.1).event("z", 0.0)
        b.or_("top", "a", "z")
        assert "SD503" not in codes_of(b.build("top"))

    def test_tight_model_is_clean(self):
        b = FaultTreeBuilder("tight")
        b.event("a", 0.01).event("b", 0.02)
        b.and_("top", "a", "b")
        assert "SD503" not in codes_of(b.build("top"))


class TestSd504AbsorbedEvent:
    def test_event_outside_top_support_is_flagged(self):
        findings = findings_for(vacuous_model(), "SD504")
        assert [f.node for f in findings] == ["b"]

    def test_all_events_matter_in_tight_model(self):
        b = FaultTreeBuilder("tight")
        b.event("a", 0.01).event("b", 0.02)
        b.atleast("top", 1, "a", "b")
        assert "SD504" not in codes_of(b.build("top"))


class TestSd505EmergentBoundBreach:
    def test_emergent_breach_is_flagged(self):
        # No single event exceeds the 0.1 threshold, yet the exact OR
        # probability provably does — only interval analysis sees it.
        b = FaultTreeBuilder("emergent")
        b.event("e1", 0.09).event("e2", 0.09).event("e3", 0.09)
        b.or_("top", "e1", "e2", "e3")
        findings = findings_for(b.build("top"), "SD505")
        assert len(findings) == 1
        assert "SD201" not in codes_of(b.build("top"))

    def test_single_event_breach_is_sd201_territory(self):
        b = FaultTreeBuilder("single")
        b.event("big", 0.5).event("a", 0.01)
        b.or_("top", "big", "a")
        codes = codes_of(b.build("top"))
        assert "SD201" in codes and "SD505" not in codes

    def test_rare_model_is_clean(self):
        b = FaultTreeBuilder("rare")
        b.event("a", 1e-4).event("b", 1e-4)
        b.or_("top", "a", "b")
        assert "SD505" not in codes_of(b.build("top"))


class TestSd506Simplifiable:
    def test_diet_opportunity_is_reported(self):
        findings = findings_for(vacuous_model(), "SD506")
        assert len(findings) == 1
        assert findings[0].severity is Severity.INFO
        assert "simplify" in (findings[0].hint or "")

    def test_tight_model_is_clean(self):
        b = FaultTreeBuilder("tight")
        b.event("a", 0.01).event("b", 0.02)
        b.and_("top", "a", "b")
        assert "SD506" not in codes_of(b.build("top"))


class TestSd507Coherence:
    def test_engine_self_check_never_fires_on_gate_trees(self):
        for model in (race_model(), vacuous_model()):
            assert "SD507" not in codes_of(model)


class TestRegistryIntegration:
    def test_sd5_codes_are_registered(self):
        from repro.lint import all_rules

        codes = {r.code for r in all_rules()}
        assert {f"SD50{i}" for i in range(1, 8)} <= codes

    def test_lint_survives_a_tiny_sem_budget(self, monkeypatch):
        # With a node budget too small to compile anything, the BDD-backed
        # rules must skip silently — lint never raises.
        monkeypatch.setattr("repro.lint.context.SEM_NODE_BUDGET", 1)
        report = lint(vacuous_model())
        assert "SD503" not in report.codes()
