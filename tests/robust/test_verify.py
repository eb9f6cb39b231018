"""Invariant guards: module-level checks, the Verifier, analyzer wiring."""

from __future__ import annotations

import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analyzer import AnalysisOptions, analyze
from repro.core.quantify import McsQuantification
from repro.ctmc.transient import _checked_distribution
from repro.errors import InvariantViolation, NumericalError
from repro.obs.metrics import MetricsRegistry
from repro.robust import faults
from repro.robust.health import HealthLog
from repro.robust.verify import (
    MODES,
    Verifier,
    check_interval,
    check_probability,
    resolve_mode,
)
from tests.strategies import mixed_sd_fault_trees

HORIZON = 24.0


def _timeless(records):
    """Records with wall timings zeroed (the only run-to-run noise)."""
    return tuple(
        dataclasses.replace(record, solve_seconds=0.0) for record in records
    )


# ----------------------------------------------------------------------
# Module-level checks
# ----------------------------------------------------------------------


class TestResolveMode:
    @pytest.mark.parametrize("mode", MODES)
    def test_accepts_known_modes(self, mode):
        assert resolve_mode(mode) == mode

    @pytest.mark.parametrize("bad", ["", "on", "CHEAP", "paranoid"])
    def test_rejects_unknown_modes(self, bad):
        with pytest.raises(ValueError, match="verify mode"):
            resolve_mode(bad)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 1.0, 0.5, 1e-300, 1.0 + 1e-12])
    def test_accepts_probabilities(self, value):
        check_probability(value, "p")

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -float("inf"), -0.1, 1.1]
    )
    def test_rejects_non_probabilities(self, value):
        with pytest.raises(InvariantViolation):
            check_probability(value, "p")

    def test_message_names_the_quantity(self):
        with pytest.raises(InvariantViolation, match="p\\(pump\\)"):
            check_probability(2.0, "p(pump)")


class TestCheckDistribution:
    """Invariant P2, which the transient solver checks on every solve."""

    def test_accepts_a_distribution(self):
        pi = np.asarray([0.25, 0.25, 0.5])
        assert _checked_distribution(pi, "pi") is pi

    def test_accepts_numpy_vectors(self):
        pi = np.array([0.5, 0.5], dtype=np.float32)
        assert _checked_distribution(pi, "pi") is pi


class TestCheckInterval:
    def test_accepts_ordered_intervals(self):
        check_interval(0.1, 0.2, 0.3, "i")
        check_interval(0.2, 0.2, 0.2, "i")

    def test_slack_scales_with_magnitude(self):
        # 1e3 * default tolerance of rounding slack on large values.
        check_interval(1000.0 + 1e-7, 1000.0, 1000.0, "i")

    @pytest.mark.parametrize(
        "lo, est, hi",
        [
            (0.3, 0.2, 0.3),
            (0.1, 0.4, 0.3),
            (float("nan"), 0.2, 0.3),
            (0.1, 0.2, float("inf")),
        ],
    )
    def test_rejects_disordered_or_nonfinite(self, lo, est, hi):
        with pytest.raises(InvariantViolation):
            check_interval(lo, est, hi, "i")


# ----------------------------------------------------------------------
# The Verifier
# ----------------------------------------------------------------------


def _record(probability, *, rung="exact", lower=None, bounded=False):
    return McsQuantification(
        cutset=frozenset({"x", "y"}),
        probability=probability,
        is_dynamic=True,
        n_dynamic_in_cutset=1,
        n_dynamic_in_model=1,
        n_added_dynamic=0,
        chain_states=4,
        solve_seconds=0.0,
        rung=rung,
        bounded=bounded,
        lower_bound=lower,
    )


class TestVerifier:
    def test_off_mode_checks_nothing(self):
        verifier = Verifier("off")
        verifier.check_probability(float("nan"), "p")  # no raise
        assert verifier.record_violation(_record(float("nan"))) is None
        assert verifier.checks == 0

    def test_modes_expose_enabled_and_full(self):
        assert not Verifier("off").enabled
        assert Verifier("cheap").enabled and not Verifier("cheap").full
        assert Verifier("full").enabled and Verifier("full").full

    def test_counters_and_metrics_track_checks(self):
        metrics = MetricsRegistry()
        verifier = Verifier("cheap", metrics=metrics)
        verifier.check_probability(0.5, "p")
        with pytest.raises(InvariantViolation):
            verifier.check_probability(2.0, "p")
        assert (verifier.checks, verifier.violations) == (2, 1)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["verify.checks"] == 2
        assert snapshot["counters"]["verify.violations"] == 1
        assert "2 checks, 1 violations" in verifier.summary()

    def test_check_value_allows_sums_above_one(self):
        verifier = Verifier("cheap")
        verifier.check_value(3.7, "rare-event sum")
        with pytest.raises(InvariantViolation, match="negative"):
            verifier.check_value(-0.5, "rare-event sum")
        with pytest.raises(InvariantViolation, match="finite"):
            verifier.check_value(float("inf"), "rare-event sum")

    def test_value_violation_reports_instead_of_raising(self):
        verifier = Verifier("cheap")
        assert verifier.value_violation(0.5, "p") is None
        message = verifier.value_violation(float("nan"), "p")
        assert message is not None and "finite" in message
        assert verifier.violations == 1

    def test_record_violation_passes_clean_records(self):
        verifier = Verifier("cheap")
        assert verifier.record_violation(_record(1e-4), worst_case=1e-3) is None

    @pytest.mark.parametrize(
        "record",
        [
            _record(float("nan")),
            _record(-0.25),
            _record(1.5),
            _record(2e-4, lower=3e-4, bounded=True),  # P3: lower > value
        ],
    )
    def test_record_violation_catches_broken_records(self, record):
        assert Verifier("cheap").record_violation(record) is not None

    def test_worst_case_dominance_on_exact_records(self):
        verifier = Verifier("cheap")
        inflated = _record(5e-3)
        message = verifier.record_violation(inflated, worst_case=1e-3)
        assert message is not None and "worst-case" in message

    def test_worst_case_dominance_skips_bounded_records(self):
        """A §VIII interval's upper end may exceed the sharp worst case."""
        verifier = Verifier("cheap")
        bounded = _record(5e-3, lower=1e-4, bounded=True, rung="bound")
        assert verifier.record_violation(bounded, worst_case=1e-3) is None

    def test_worst_case_slack_tracks_tolerance(self):
        verifier = Verifier("cheap", tolerance=1e-2)
        nearly = _record(1.005e-3)
        assert verifier.record_violation(nearly, worst_case=1e-3) is None


# ----------------------------------------------------------------------
# Analyzer wiring
# ----------------------------------------------------------------------


class TestAnalyzerVerify:
    def test_rejects_unknown_mode_before_any_work(self, cooling_sdft):
        with pytest.raises(ValueError, match="verify mode"):
            analyze(cooling_sdft, AnalysisOptions(verify="always"))

    @pytest.mark.parametrize("mode", ["cheap", "full"])
    def test_verified_run_matches_unverified(
        self, cooling_sdft, bwr_study, mode
    ):
        # The cheap guards sit on the hot per-record path of every run,
        # so they are also checked at benchmark scale.
        models = [cooling_sdft] + ([bwr_study] if mode == "cheap" else [])
        for sdft in models:
            baseline = analyze(sdft, AnalysisOptions(horizon=HORIZON))
            verified = analyze(
                sdft, AnalysisOptions(horizon=HORIZON, verify=mode)
            )
            assert verified.failure_probability == baseline.failure_probability
            assert _timeless(verified.records) == _timeless(baseline.records)

    def test_verified_run_reports_its_check_count(self, cooling_sdft):
        result = analyze(
            cooling_sdft, AnalysisOptions(horizon=HORIZON, verify="cheap")
        )
        messages = [e.message for e in result.health.events if e.stage == "verify"]
        assert any("violations" in m for m in messages)
        assert result.health.is_clean

    def test_corrupt_value_raises_without_isolation(self, cooling_sdft):
        with faults.inject_value("solve_value", float("nan")):
            with pytest.raises(InvariantViolation):
                analyze(
                    cooling_sdft,
                    AnalysisOptions(horizon=HORIZON, verify="cheap"),
                )

    def test_corrupt_value_degrades_under_isolation(self, cooling_sdft):
        clean = analyze(cooling_sdft, AnalysisOptions(horizon=HORIZON))
        with faults.inject_value("solve_value", float("nan"), times=1):
            result = analyze(
                cooling_sdft,
                AnalysisOptions(
                    horizon=HORIZON, verify="cheap", fault_isolation=True
                ),
            )
        assert result.is_degraded
        assert result.n_degraded_cutsets == 1
        assert any(
            "invariant violation" in e.message for e in result.health.events
        )
        # The degraded record substitutes the conservative worst case, so
        # the interval still brackets the clean answer.
        lower, upper = result.failure_probability_interval()
        assert lower <= clean.failure_probability <= upper
        assert {r.cutset for r in result.records} == {
            r.cutset for r in clean.records
        }

    def test_without_verify_corruption_is_silent(self, cooling_sdft):
        """The failure mode the verify layer exists for: a NaN record is
        silently *excluded* from the rare-event sum (``nan > cutoff`` is
        false), shrinking the answer with a clean health report."""
        clean = analyze(cooling_sdft, AnalysisOptions(horizon=HORIZON))
        with faults.inject_value("solve_value", float("nan"), times=1):
            result = analyze(
                cooling_sdft,
                AnalysisOptions(horizon=HORIZON, fault_isolation=True),
            )
        assert result.health.is_clean  # nothing noticed anything
        assert result.failure_probability < clean.failure_probability
        assert any(math.isnan(r.probability) for r in result.records)

    def test_parallel_run_verifies_pool_results(self, cooling_sdft):
        baseline = analyze(cooling_sdft, AnalysisOptions(horizon=HORIZON))
        verified = analyze(
            cooling_sdft,
            AnalysisOptions(horizon=HORIZON, verify="cheap", jobs=2),
        )
        assert verified.failure_probability == baseline.failure_probability

    def test_corrupt_pool_value_is_resolved_in_parent(self, cooling_sdft):
        """A corrupted pool result is caught by P1 and re-solved in the
        parent: the final answer is unchanged and a warning says why.

        The predicate corrupts only inside worker processes, so the
        parent's recovery re-solve returns the genuine value.
        """
        baseline = analyze(cooling_sdft, AnalysisOptions(horizon=HORIZON))
        parent = os.getpid()
        with faults.inject_value(
            "solve_value",
            float("nan"),
            when=lambda cutset=None, **_: os.getpid() != parent
            and cutset == frozenset({"b", "d"}),
        ):
            result = analyze(
                cooling_sdft,
                AnalysisOptions(horizon=HORIZON, verify="cheap", jobs=2),
            )
        assert result.failure_probability == baseline.failure_probability
        assert any(
            "re-solving in the parent" in e.message
            for e in result.health.events
        )


# ----------------------------------------------------------------------
# Hypothesis: verification never changes a clean result
# ----------------------------------------------------------------------


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    sdft=mixed_sd_fault_trees(),
    horizon=st.sampled_from([6.0, 24.0, 96.0]),
    cutoff=st.sampled_from([0.0, 1e-9]),
)
def test_cheap_verify_is_an_observer(sdft, horizon, cutoff):
    """``verify="cheap"`` is pure observation: bit-identical results."""
    base_opts = AnalysisOptions(horizon=horizon, cutoff=cutoff)
    baseline = analyze(sdft, base_opts)
    verified = analyze(sdft, dataclasses.replace(base_opts, verify="cheap"))
    assert verified.failure_probability == baseline.failure_probability
    assert _timeless(verified.records) == _timeless(baseline.records)
    assert verified.failure_probability_interval() == (
        baseline.failure_probability_interval()
    )
