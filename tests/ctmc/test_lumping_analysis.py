"""Tests of the long-run and first-passage analytics of a CTMC."""

import math

import pytest

from repro.ctmc.analysis import (
    eventual_failure_probability,
    expected_downtime,
    mean_time_to_failure,
)
from repro.ctmc.builders import exponential_failure, repairable, static_chain
from repro.ctmc.chain import Ctmc


class TestMttf:
    def test_exponential(self):
        assert mean_time_to_failure(exponential_failure(0.01)) == pytest.approx(100.0)

    def test_repairable_first_passage_ignores_repair(self):
        # First passage of a 2-state repairable chain equals the pure
        # exponential MTTF: repair only matters after the first failure.
        assert mean_time_to_failure(repairable(0.01, 5.0)) == pytest.approx(100.0)

    def test_erlang(self):
        from repro.ctmc.builders import erlang_failure

        # k phases at rate k*lambda: MTTF = 1/lambda by construction.
        assert mean_time_to_failure(erlang_failure(3, 0.02)) == pytest.approx(50.0)

    def test_no_failed_states_is_infinite(self):
        chain = Ctmc(["a", "b"], {"a": 1.0}, {("a", "b"): 1.0}, [])
        assert math.isinf(mean_time_to_failure(chain))

    def test_unreachable_failure_is_infinite(self):
        chain = Ctmc(
            ["a", "safe", "f"],
            {"a": 1.0},
            {("a", "safe"): 1.0},
            ["f"],
        )
        assert math.isinf(mean_time_to_failure(chain))


class TestDowntime:
    def test_zero_horizon(self):
        assert expected_downtime(repairable(0.1, 1.0), 0.0) == 0.0

    def test_non_repairable_downtime_integral(self):
        """For an absorbing failure, downtime = ∫ (1 - e^{-λu}) du."""
        lam, t = 0.05, 30.0
        chain = exponential_failure(lam)
        expected = t - (1 - math.exp(-lam * t)) / lam
        assert expected_downtime(chain, t) == pytest.approx(expected, rel=1e-6)

    def test_frozen_chain(self):
        assert expected_downtime(static_chain(0.25), 8.0) == pytest.approx(2.0)

    def test_repair_reduces_downtime(self):
        t = 100.0
        slow = expected_downtime(repairable(0.05, 0.01), t)
        fast = expected_downtime(repairable(0.05, 5.0), t)
        assert fast < slow

    def test_long_run_matches_steady_state(self):
        """Downtime fraction converges to the stationary unavailability."""
        lam, mu = 0.2, 1.0
        t = 2000.0
        downtime = expected_downtime(repairable(lam, mu), t)
        assert downtime / t == pytest.approx(lam / (lam + mu), rel=0.01)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            expected_downtime(repairable(0.1, 1.0), -1.0)


class TestEventualFailure:
    def test_certain_for_irreducible(self):
        assert eventual_failure_probability(repairable(0.01, 1.0)) == pytest.approx(1.0)

    def test_race_between_absorbing_outcomes(self):
        chain = Ctmc(
            ["start", "safe", "f"],
            {"start": 1.0},
            {("start", "safe"): 3.0, ("start", "f"): 1.0},
            ["f"],
        )
        assert eventual_failure_probability(chain) == pytest.approx(0.25)

    def test_initially_failed_counts(self):
        assert eventual_failure_probability(static_chain(0.3)) == pytest.approx(0.3)

    def test_no_failed_states(self):
        chain = Ctmc(["a"], {"a": 1.0}, {}, [])
        assert eventual_failure_probability(chain) == 0.0
