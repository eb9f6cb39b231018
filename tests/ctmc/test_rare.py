"""The rare-event Monte-Carlo engine against exact uniformization oracles.

The acceptance bar (ISSUE 6): on a synthetic cutset with exact
probability <= 1e-7 the engine must reach a 10 % relative half-width
within a run budget where crude sampling observes zero failures, with
an interval that contains the exact value — and stay bit-deterministic
in the seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sdft import SdFaultTreeBuilder
from repro.ctmc.builders import (
    exponential_failure,
    repairable,
    triggered_repairable,
)
from repro.ctmc.product import build_product
from repro.ctmc.rare import PILOT_MIN_FAILURES, estimate_failure_probability
from repro.ctmc.simulate import TrajectoryKernel
from repro.ctmc.transient import reach_probability
from repro.robust import faults

HORIZON = 24.0

#: AND of two slow exponential failures: p(24h) ~= (lam*t)^2 ~= 9e-8.
RARE_LAMBDA = 1.25e-5


@pytest.fixture(scope="module")
def rare_pair():
    b = SdFaultTreeBuilder("rare-pair")
    b.dynamic_event("x", exponential_failure(RARE_LAMBDA))
    b.dynamic_event("y", exponential_failure(RARE_LAMBDA))
    b.and_("top", "x", "y")
    return b.build("top")


@pytest.fixture(scope="module")
def rare_exact(rare_pair):
    return reach_probability(build_product(rare_pair).chain, HORIZON)


class TestConfig:
    def test_rejects_unknown_engine(self, rare_pair):
        with pytest.raises(ValueError, match="engine"):
            estimate_failure_probability(rare_pair, HORIZON, engine="quantum")

    def test_rejects_negative_horizon(self, rare_pair):
        with pytest.raises(ValueError, match="horizon"):
            estimate_failure_probability(rare_pair, -1.0)


class TestAcceptance:
    """The ISSUE acceptance criterion, verbatim."""

    def test_exact_probability_is_psa_scale(self, rare_exact):
        assert rare_exact <= 1e-7

    def test_crude_sees_nothing_at_the_same_budget(self, rare_pair):
        crude = estimate_failure_probability(
            rare_pair, HORIZON, engine="crude", max_runs=20_000, seed=7
        )
        assert crude.n_failures == 0
        assert crude.estimate == 0.0
        assert not crude.converged

    def test_is_reaches_ten_percent_and_brackets(self, rare_pair, rare_exact):
        result = estimate_failure_probability(
            rare_pair, HORIZON, engine="is", max_runs=20_000, seed=7
        )
        assert result.converged
        assert result.achieved_rel_error <= 0.10
        assert result.n_runs <= 20_000
        lower, upper = result.interval(sigmas=4.0)
        assert lower <= rare_exact <= upper

    def test_auto_routes_the_rare_case_to_importance_sampling(
        self, rare_pair, rare_exact
    ):
        result = estimate_failure_probability(rare_pair, HORIZON, engine="auto", seed=3)
        assert result.engine == "is"
        assert result.converged
        lower, upper = result.interval(sigmas=4.0)
        assert lower <= rare_exact <= upper

    def test_same_seed_is_bit_identical(self, rare_pair):
        first = estimate_failure_probability(rare_pair, HORIZON, seed=42)
        second = estimate_failure_probability(rare_pair, HORIZON, seed=42)
        assert first == second  # frozen dataclass: field-exact equality


class TestUnbiasedness:
    def test_is_estimator_mean_matches_uniformization(
        self, rare_pair, rare_exact
    ):
        """Weighted-mean unbiasedness: E[estimate] = p.

        Averages independent converged IS estimates; the combined
        standard error shrinks with the number of replicates, so a
        biased estimator (a wrong likelihood-ratio factor anywhere)
        lands many sigmas out.
        """
        results = [
            estimate_failure_probability(
                rare_pair, HORIZON, engine="is", max_runs=4_000, seed=s
            )
            for s in range(24)
        ]
        estimates = np.array([r.estimate for r in results])
        combined_se = float(
            np.sqrt(sum(r.standard_error**2 for r in results)) / len(results)
        )
        assert abs(float(estimates.mean()) - rare_exact) <= 4.0 * combined_se

    def test_splitting_estimator_brackets_uniformization(
        self, rare_pair, rare_exact
    ):
        result = estimate_failure_probability(
            rare_pair, HORIZON, engine="splitting", seed=11
        )
        assert result.engine == "splitting"
        assert result.n_failures > 0
        lower, upper = result.interval(sigmas=4.0)
        assert lower <= rare_exact <= upper


class TestNonRareModels:
    """Common events stay on (or agree with) the crude path."""

    @pytest.fixture(scope="class")
    def cooling(self):
        b = SdFaultTreeBuilder("cooling-sd")
        b.static_event("a", 3e-3).static_event("c", 3e-3)
        b.static_event("e", 3e-6)
        b.dynamic_event("b", repairable(0.001, 0.05))
        b.dynamic_event("d", triggered_repairable(0.001, 0.05))
        b.or_("pump1", "a", "b").or_("pump2", "c", "d")
        b.and_("pumps", "pump1", "pump2")
        b.or_("cooling", "pumps", "e")
        b.trigger("pump1", "d")
        return b.build("cooling")

    @pytest.fixture(scope="class")
    def cooling_exact(self, cooling):
        return reach_probability(build_product(cooling).chain, HORIZON)

    def test_auto_picks_crude_when_failures_are_plentiful(self):
        b = SdFaultTreeBuilder("common")
        b.dynamic_event("x", exponential_failure(0.05))
        b.or_("top", "x")
        model = b.build("top")
        result = estimate_failure_probability(model, HORIZON, engine="auto", seed=1)
        assert result.engine == "crude"
        assert result.pilot_failures >= PILOT_MIN_FAILURES

    @pytest.mark.parametrize("engine", ["crude", "is", "splitting"])
    def test_every_engine_brackets_the_cooling_value(
        self, cooling, cooling_exact, engine
    ):
        result = estimate_failure_probability(
            cooling, HORIZON, engine=engine, max_runs=20_000, seed=5
        )
        lower, upper = result.interval(sigmas=4.0)
        assert lower <= cooling_exact <= upper

    def test_forcing_weights_stay_strictly_positive(self, cooling):
        """Likelihood ratios are products of positive factors, never 0/inf."""
        result = estimate_failure_probability(cooling, HORIZON, engine="is", seed=9)
        assert np.isfinite(result.estimate)
        assert 0.0 < result.estimate < 1.0


class TestIntervals:
    def test_zero_failures_fall_back_to_rule_of_three(self, rare_pair):
        result = estimate_failure_probability(
            rare_pair, HORIZON, engine="crude", max_runs=2_000, seed=1
        )
        assert result.n_failures == 0
        lower, upper = result.interval()
        assert lower == 0.0
        assert upper == pytest.approx(3.0 / 2_000)

    def test_nan_estimate_propagates_for_the_invariant_guards(self, rare_pair):
        with faults.inject_value(
            "rare_event_weights", lambda w: w * float("nan"), times=1
        ):
            result = estimate_failure_probability(
                rare_pair, HORIZON, engine="is", seed=2
            )
        lower, upper = result.interval()
        assert np.isnan(result.estimate)
        assert np.isnan(lower) and np.isnan(upper)

    def test_inflated_estimate_inverts_the_interval(self, rare_pair):
        """Silent weight inflation must be P3-detectable, not clipped away."""
        with faults.inject_value(
            "rare_event_estimate", lambda p: p * 1e12 + 1.1, times=1
        ):
            result = estimate_failure_probability(
                rare_pair, HORIZON, engine="is", seed=2
            )
        lower, upper = result.interval(sigmas=4.0)
        assert lower > upper  # inverted: the interval-order guard fires

    def test_zero_horizon_estimates_zero(self, rare_pair):
        result = estimate_failure_probability(rare_pair, 0.0, seed=4)
        assert result.estimate == 0.0
        lower, upper = result.interval()
        assert lower == 0.0 and upper <= 1.0


class TestBudget:
    def test_max_runs_caps_the_total(self, rare_pair):
        result = estimate_failure_probability(
            rare_pair, HORIZON, engine="is", max_runs=500, seed=6
        )
        assert result.n_runs <= 500


class TestKernelGuards:
    def test_zero_rate_initial_state_is_absorbing(self):
        """Satellite: an all-zero race must end the run, not divide by zero."""
        b = SdFaultTreeBuilder("stuck-spare")
        b.static_event("s", 0.5)
        # The spare never fails passively and only switches on when the
        # trigger gate fails — so with ``s`` intact its initial state
        # has no enabled transitions at all.
        b.dynamic_event("d", triggered_repairable(0.001, 0.05))
        b.or_("gs", "s")
        b.and_("top", "gs", "d")
        b.trigger("gs", "d")
        model = b.build("top")
        kernel = TrajectoryKernel(model)
        rng = np.random.default_rng(0)
        sids = kernel.sample_initial_ids(64, rng)
        absorbing = [s for s in sids if kernel.exit_rate(int(s)) == 0.0]
        assert absorbing, "some draws must leave the spare stuck off"
        assert all(kernel.moves(int(s)) is None for s in absorbing)
        result = estimate_failure_probability(
            model, HORIZON, engine="crude", max_runs=500, seed=0
        )
        assert 0.0 <= result.estimate <= 1.0
