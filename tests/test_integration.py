"""Cross-implementation integration tests.

Three independent implementations of the SD semantics exist in this
package — the per-cutset decomposition (the paper's method), the exact
product chain, and the Monte-Carlo simulator.  These tests drive all
three over a battery of models covering every trigger class and assert
the paper's accuracy contract:

* the per-cutset rare-event sum over-approximates the exact value;
* the over-approximation is modest (cutset overlap only);
* the simulator agrees with the exact value within sampling error.
"""

import pytest

from repro.core.analyzer import AnalysisOptions, analyze, analyze_exact
from repro.core.sdft import SdFaultTreeBuilder
from repro.ctmc.builders import (
    erlang_failure,
    repairable,
    triggered_erlang,
    triggered_repairable,
)
from repro.ctmc.rare import estimate_failure_probability


def _running_example():
    b = SdFaultTreeBuilder("cooling")
    b.static_event("a", 3e-3).static_event("c", 3e-3).static_event("e", 3e-6)
    b.dynamic_event("b", repairable(0.001, 0.05))
    b.dynamic_event("d", triggered_repairable(0.001, 0.05))
    b.or_("pump1", "a", "b").or_("pump2", "c", "d")
    b.and_("pumps", "pump1", "pump2").or_("cooling", "pumps", "e")
    b.trigger("pump1", "d")
    return b.build("cooling")


def _static_joins():
    b = SdFaultTreeBuilder("joins")
    b.dynamic_event("e", repairable(0.02, 0.5))
    b.dynamic_event("f", repairable(0.03, 0.5))
    b.dynamic_event("g", triggered_repairable(0.05, 0.2))
    b.static_event("s", 0.01)
    b.or_("trigger_sys", "e", "f")
    b.and_("top", "trigger_sys", "g", "s")
    b.trigger("trigger_sys", "g")
    return b.build("top")


def _general_case():
    b = SdFaultTreeBuilder("general")
    b.dynamic_event("p", repairable(0.02, 0.5))
    b.dynamic_event("q1", repairable(0.04, 0.5))
    b.dynamic_event("q2", repairable(0.03, 0.4))
    b.static_event("d", 0.15)
    b.dynamic_event("r", triggered_repairable(0.05, 0.2))
    b.or_("guard", "d", "q1", "q2")
    b.and_("trig_gate", "p", "guard")
    b.and_("aux", "trig_gate", "r")
    b.or_("top", "aux")
    b.trigger("trig_gate", "r")
    return b.build("top")


def _uniform_chain():
    b = SdFaultTreeBuilder("chain")
    b.dynamic_event("a1", repairable(0.03, 0.3))
    b.dynamic_event("a2", repairable(0.02, 0.3))
    b.dynamic_event("b1", triggered_repairable(0.04, 0.3))
    b.dynamic_event("b2", triggered_repairable(0.05, 0.3))
    b.dynamic_event("c1", triggered_repairable(0.06, 0.3))
    b.or_("sysA", "a1", "a2")
    b.or_("sysB", "b1", "b2")
    b.and_("top", "sysA", "sysB", "c1")
    b.trigger("sysA", "b1", "b2")
    b.trigger("sysB", "c1")
    return b.build("top")


def _erlang_phases():
    b = SdFaultTreeBuilder("phases")
    b.dynamic_event("x", erlang_failure(3, 0.02, 0.3))
    b.dynamic_event("y", triggered_erlang(2, 0.05, 0.2))
    b.static_event("s", 0.05)
    b.or_("src", "x", "s")
    b.and_("top", "src", "y")
    b.trigger("src", "y")
    return b.build("top")


MODELS = {
    "running-example": _running_example,
    "static-joins": _static_joins,
    "general-case": _general_case,
    "uniform-chain": _uniform_chain,
    "erlang-phases": _erlang_phases,
}


@pytest.mark.parametrize("name", sorted(MODELS))
class TestThreeWayAgreement:
    def test_per_cutset_over_approximates_exact(self, name):
        sdft = MODELS[name]()
        result = analyze(sdft, AnalysisOptions(horizon=24.0))
        exact = analyze_exact(sdft, 24.0)
        assert result.failure_probability >= exact - 1e-12
        # The over-approximation only comes from cutset overlap.
        assert result.failure_probability <= 1.5 * exact

    def test_simulation_agrees_with_exact(self, name):
        sdft = MODELS[name]()
        exact = analyze_exact(sdft, 24.0)
        simulated = estimate_failure_probability(
            sdft, 24.0, engine="crude", max_runs=30_000, seed=17
        )
        lower, upper = simulated.interval()
        assert lower <= exact <= upper


class TestRareEventConvergence:
    def test_over_approximation_vanishes_for_rare_failures(self):
        """Scaling all rates down makes cutset overlap negligible: the
        per-cutset sum converges to the exact probability."""
        ratios = []
        for scale in (1.0, 0.1):
            b = SdFaultTreeBuilder("scaled")
            b.dynamic_event("e", repairable(0.02 * scale, 0.5))
            b.dynamic_event("f", repairable(0.03 * scale, 0.5))
            b.dynamic_event("g", triggered_repairable(0.05 * scale, 0.2))
            b.static_event("s", 0.01 * scale)
            b.or_("trigger_sys", "e", "f")
            b.and_("top", "trigger_sys", "g", "s")
            b.trigger("trigger_sys", "g")
            sdft = b.build("top")
            result = analyze(sdft, AnalysisOptions(horizon=24.0, cutoff=0.0))
            exact = analyze_exact(sdft, 24.0)
            ratios.append(result.failure_probability / exact)
        assert ratios[1] < ratios[0]
        assert ratios[1] < 1.02


class TestRandomModels:
    """Property-based cross-validation over random SD fault trees.

    This is the strongest correctness net in the suite: arbitrary small
    tree shapes, arbitrary trigger placements, every trigger class can
    arise — and the per-cutset method must stay conservative against
    the exact product chain on each of them.
    """

    from hypothesis import given, settings

    from tests.strategies import sd_fault_trees

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(sd_fault_trees())
    def test_per_cutset_conservative_vs_exact(self, sdft):
        options = AnalysisOptions(horizon=12.0, cutoff=0.0)
        result = analyze(sdft, options)
        exact = analyze_exact(sdft, 12.0)
        assert result.failure_probability >= exact - 1e-9
        assert result.static_bound >= result.failure_probability - 1e-12

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(sd_fault_trees(max_static=2, max_dynamic=3, max_gates=4))
    def test_per_cutset_reasonably_tight(self, sdft):
        """The overshoot is bounded: the rare-event sum cannot exceed
        the number-of-cutsets multiple of the exact value."""
        options = AnalysisOptions(horizon=12.0, cutoff=0.0)
        result = analyze(sdft, options)
        exact = analyze_exact(sdft, 12.0)
        if exact > 1e-12:
            assert result.failure_probability <= max(1, result.n_cutsets) * exact + 1e-9


class TestHorizonConsistency:
    @pytest.mark.parametrize("name", ["running-example", "static-joins"])
    def test_monotone_in_horizon_and_matches_exact(self, name):
        sdft = MODELS[name]()
        previous = 0.0
        for horizon in (6.0, 24.0, 96.0):
            value = analyze(
                sdft, AnalysisOptions(horizon=horizon)
            ).failure_probability
            exact = analyze_exact(sdft, horizon)
            assert value >= exact - 1e-12
            assert value >= previous
            previous = value
