"""Positive and negative tests of the probabilistic rules (SD2xx)."""

from repro.core.sdft import SdFaultTreeBuilder
from repro.ctmc.builders import erlang_failure, repairable
from repro.ctmc.chain import Ctmc
from repro.ft.builder import FaultTreeBuilder
from tests.lint.helpers import codes_of, findings_for


def _two_event_top(p_a: float, p_b: float = 1e-3):
    b = FaultTreeBuilder("t")
    b.event("a", p_a).event("b", p_b)
    b.or_("top", "a", "b")
    return b.build("top")


class TestRareEventDegraded:  # SD201
    def test_large_probability_is_flagged(self):
        findings = findings_for(_two_event_top(0.5), "SD201")
        assert [d.node for d in findings] == ["a"]
        assert "SD201" in codes_of(_two_event_top(0.15))

    def test_small_probability_is_fine(self):
        assert "SD201" not in codes_of(_two_event_top(0.05))
        assert "SD201" not in codes_of(_two_event_top(0.08))

    def test_certain_event_is_sd202_not_sd201(self):
        codes = codes_of(_two_event_top(1.0))
        assert "SD202" in codes
        assert "SD201" not in codes

    def test_dynamic_worst_case_is_flagged(self):
        """A fast-failing chain whose worst case over the horizon
        exceeds the threshold trips the same rule."""
        b = SdFaultTreeBuilder("t")
        b.static_event("a", 1e-3)
        b.dynamic_event("d", erlang_failure(1, 0.1))  # p(24h) ~ 0.91
        b.or_("top", "a", "d")
        findings = findings_for(b.build("top"), "SD201")
        assert [d.node for d in findings] == ["d"]


class TestCertainEvent:  # SD202
    def test_probability_one_is_flagged(self):
        findings = findings_for(_two_event_top(1.0), "SD202")
        assert [d.node for d in findings] == ["a"]

    def test_probability_below_one_is_fine(self):
        assert "SD202" not in codes_of(_two_event_top(0.999))


class TestZeroProbabilityEvent:  # SD203
    def test_probability_zero_is_flagged(self):
        findings = findings_for(_two_event_top(0.0), "SD203")
        assert [d.node for d in findings] == ["a"]

    def test_tiny_probability_is_not_sd203(self):
        assert "SD203" not in codes_of(_two_event_top(1e-12))


class TestCutoffEmptiesMcs:  # SD204
    def test_cutoff_above_every_event_is_an_error(self):
        tree = _two_event_top(1e-6, 1e-6)
        findings = findings_for(tree, "SD204", cutoff=1e-3)
        assert len(findings) == 1
        assert findings[0].severity.value == "error"

    def test_cutoff_below_the_best_event_is_fine(self):
        tree = _two_event_top(1e-6, 1e-6)
        assert "SD204" not in codes_of(tree, cutoff=1e-9)

    def test_zero_cutoff_is_silent(self):
        assert "SD204" not in codes_of(_two_event_top(1e-6), cutoff=0.0)


class TestEventBelowCutoff:  # SD205
    def test_event_below_cutoff_is_flagged(self):
        findings = findings_for(_two_event_top(1e-20), "SD205")
        assert [d.node for d in findings] == ["a"]

    def test_event_above_cutoff_is_fine(self):
        assert "SD205" not in codes_of(_two_event_top(1e-10))


class TestStiffChain:  # SD206
    def test_huge_exit_rate_is_flagged(self):
        b = SdFaultTreeBuilder("t")
        b.static_event("a", 1e-3)
        b.dynamic_event("d", repairable(2e3, 1e3))
        b.or_("top", "a", "d")
        findings = findings_for(b.build("top"), "SD206")
        assert [d.node for d in findings] == ["d"]

    def test_moderate_rates_are_fine(self, cooling_sdft):
        assert "SD206" not in codes_of(cooling_sdft)


class TestInertChain:  # SD207
    def test_chain_without_path_to_failed_is_flagged(self):
        stuck = Ctmc(["up", "down"], {"up": 1.0}, {}, ["down"])
        b = SdFaultTreeBuilder("t")
        b.static_event("a", 1e-3)
        b.dynamic_event("d", stuck)
        b.or_("top", "a", "d")
        findings = findings_for(b.build("top"), "SD207")
        assert [d.node for d in findings] == ["d"]

    def test_failable_chain_is_fine(self, cooling_sdft):
        assert "SD207" not in codes_of(cooling_sdft)


class TestNegligibleRates:  # SD208
    def test_tiny_exposure_is_flagged(self):
        b = SdFaultTreeBuilder("t")
        b.static_event("a", 1e-3)
        b.dynamic_event("d", erlang_failure(1, 1e-12))
        b.or_("top", "a", "d")
        findings = findings_for(b.build("top"), "SD208")
        assert [d.node for d in findings] == ["d"]

    def test_normal_rates_are_fine(self, cooling_sdft):
        assert "SD208" not in codes_of(cooling_sdft)

    def test_inert_chain_is_sd207_not_sd208(self):
        stuck = Ctmc(["up", "down"], {"up": 1.0}, {}, ["down"])
        b = SdFaultTreeBuilder("t")
        b.static_event("a", 1e-3)
        b.dynamic_event("d", stuck)
        b.or_("top", "a", "d")
        codes = codes_of(b.build("top"))
        assert "SD207" in codes
        assert "SD208" not in codes


class TestInitiallyFailedEvent:  # SD209
    def test_initially_failed_chain_is_flagged(self):
        failed_start = Ctmc(
            ["down", "up"], {"down": 1.0}, {("down", "up"): 0.1}, ["down"]
        )
        b = SdFaultTreeBuilder("t")
        b.static_event("a", 1e-3)
        b.dynamic_event("d", failed_start)
        b.and_("top", "a", "d")
        findings = findings_for(b.build("top"), "SD209")
        assert [d.node for d in findings] == ["d"]
        assert "SD201" not in codes_of(b.build("top"))

    def test_normally_started_chain_is_fine(self, cooling_sdft):
        assert "SD209" not in codes_of(cooling_sdft)
