"""Tests of the rate-sensitivity analysis."""

from dataclasses import replace

import pytest

from repro.core.analyzer import AnalysisOptions, analyze
from repro.core.sdft import SdFaultTreeBuilder
from repro.core.sensitivity import rate_sensitivity
from repro.ctmc.builders import repairable, triggered_repairable
from repro.errors import UnknownNodeError
from repro.service.edits import ScaleRates, apply_edits


@pytest.fixture
def analyzed(cooling_sdft):
    return cooling_sdft, analyze(cooling_sdft, AnalysisOptions(horizon=24.0))


@pytest.fixture
def hidden_dependency_sdft():
    """``OR(x, z)`` triggers ``y``, so the cutset ``{p, y, z}`` reads
    ``x`` through the trigger gate without containing it."""
    b = SdFaultTreeBuilder("hidden-dependency")
    b.static_event("p", 1e-2)
    b.dynamic_event("x", repairable(0.01, 0.1))
    b.dynamic_event("z", repairable(0.01, 0.1))
    b.dynamic_event("y", triggered_repairable(0.02, 0.1))
    b.or_("g", "x", "z")
    b.and_("top", "p", "y")
    b.trigger("g", "y")
    return b.build("top")


class TestRateSensitivity:
    def test_higher_failure_rate_raises_probability(self, analyzed):
        sdft, result = analyzed
        sensitivity = rate_sensitivity(sdft, result, "b", relative_step=0.10)
        # b's chain carries both failure and repair rates; failure
        # dominates the first-passage behaviour, so scaling both up
        # still increases the failure probability.
        assert sensitivity.perturbed_probability > sensitivity.base_probability
        assert sensitivity.elasticity > 0.0

    def test_base_matches_analysis(self, analyzed):
        sdft, result = analyzed
        sensitivity = rate_sensitivity(sdft, result, "d")
        assert sensitivity.base_probability == pytest.approx(
            result.failure_probability
        )

    def test_perturbation_consistency_with_full_reanalysis(
        self, analyzed, hidden_dependency_sdft
    ):
        """The perturbed value is exactly what a cold analysis of the
        perturbed model serves — also when a cutset reads the event only
        through a trigger gate, and for a falling rate."""
        cooling_sdft, cooling_result = analyzed
        hidden_result = analyze(
            hidden_dependency_sdft, AnalysisOptions(horizon=24.0)
        )
        cases = (
            (cooling_sdft, cooling_result, "b"),
            (hidden_dependency_sdft, hidden_result, "x"),
        )
        for sdft, result, event in cases:
            for step in (0.25, -0.25):
                sensitivity = rate_sensitivity(
                    sdft, result, event, relative_step=step
                )
                cold = analyze(
                    apply_edits(sdft, [ScaleRates(event, 1.0 + step)]),
                    AnalysisOptions(horizon=24.0),
                )
                assert sensitivity.perturbed_probability == cold.failure_probability

    def test_perturbed_run_leaves_the_base_trace_alone(
        self, cooling_sdft, tmp_path
    ):
        """Options carrying per-run outputs are not forwarded: the
        perturbed run neither rewrites the base trace nor takes the
        checkpoint path, and still serves the cold value."""
        trace = tmp_path / "base.jsonl"
        opts = AnalysisOptions(horizon=24.0, trace_path=str(trace))
        result = analyze(cooling_sdft, opts)
        written = trace.read_bytes()
        sensitivity = rate_sensitivity(
            cooling_sdft,
            result,
            "b",
            options=replace(opts, checkpoint_path=str(tmp_path / "run.ckpt")),
        )
        assert trace.read_bytes() == written
        assert list(tmp_path.iterdir()) == [trace]
        cold = analyze(
            apply_edits(cooling_sdft, [ScaleRates("b", 1.05)]),
            AnalysisOptions(horizon=24.0),
        )
        assert sensitivity.perturbed_probability == cold.failure_probability

    def test_small_step_linearises(self, analyzed):
        """Elasticity stabilises as the step shrinks (the derivative)."""
        sdft, result = analyzed
        coarse = rate_sensitivity(sdft, result, "b", relative_step=0.5)
        fine = rate_sensitivity(sdft, result, "b", relative_step=0.01)
        finer = rate_sensitivity(sdft, result, "b", relative_step=0.005)
        assert abs(fine.elasticity - finer.elasticity) < abs(
            coarse.elasticity - finer.elasticity
        ) + 1e-9

    def test_static_event_rejected(self, analyzed):
        sdft, result = analyzed
        with pytest.raises(UnknownNodeError):
            rate_sensitivity(sdft, result, "a")

    def test_zero_elasticity_when_probability_zero(self, cooling_sdft):
        result = analyze(
            cooling_sdft, AnalysisOptions(horizon=24.0, cutoff=1e-2)
        )
        assert result.failure_probability == 0.0
        sensitivity = rate_sensitivity(cooling_sdft, result, "b")
        assert sensitivity.elasticity == 0.0
