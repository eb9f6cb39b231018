"""Tests of the exact product-chain semantics and the crude simulator."""

import time

import pytest

from repro.core.analyzer import analyze_exact
from repro.ctmc.product import SdSemantics, build_product
from repro.ctmc.rare import estimate_failure_probability
from repro.ctmc.transient import reach_probability
from repro.errors import ChainTooLargeError
from repro.models.bwr import build_bwr


class TestSemantics:
    def test_gate_status(self, cooling_sdft):
        semantics = SdSemantics(cooling_sdft)
        # Order is sorted: a, b, c, d, e.
        state = ("fail", ("on", 0), "ok", ("off", 0), "ok")
        status = semantics.gate_status(state)
        assert status["a"] and status["pump1"]
        assert not status["pump2"] and not status["cooling"]

    def test_make_consistent_switches_on(self, cooling_sdft):
        semantics = SdSemantics(cooling_sdft)
        # a failed => pump1 failed => d must switch on.
        state = ("fail", ("on", 0), "ok", ("off", 0), "ok")
        consistent = semantics.make_consistent(state)
        assert consistent == ("fail", ("on", 0), "ok", ("on", 0), "ok")

    def test_make_consistent_switches_off(self, cooling_sdft):
        semantics = SdSemantics(cooling_sdft)
        # pump1 healthy but d switched on: must switch off.
        state = ("ok", ("on", 0), "ok", ("on", 0), "ok")
        consistent = semantics.make_consistent(state)
        assert consistent == ("ok", ("on", 0), "ok", ("off", 0), "ok")

    def test_example_5_evolution(self, cooling_sdft):
        """Paper Example 5: b failing while the rest is healthy triggers d."""
        semantics = SdSemantics(cooling_sdft)
        s1 = ("ok", ("on", 0), "ok", ("off", 0), "ok")
        assert semantics.is_consistent(s1)
        # b evolves to failed -> update switches d on.
        evolved = ("ok", ("on", 1), "ok", ("off", 0), "ok")
        s2 = semantics.make_consistent(evolved)
        assert s2 == ("ok", ("on", 1), "ok", ("on", 0), "ok")

    def test_initial_states_sum_to_one(self, cooling_sdft):
        semantics = SdSemantics(cooling_sdft)
        initial = semantics.initial_states()
        assert sum(p for _, p in initial) == pytest.approx(1.0, abs=1e-12)
        for state, _ in initial:
            assert semantics.is_consistent(state)

    def test_initially_triggered_by_static_failure(self, cooling_sdft):
        """The initial state with a failed must have d already on."""
        semantics = SdSemantics(cooling_sdft)
        initial = dict(semantics.initial_states())
        state = ("fail", ("on", 0), "ok", ("on", 0), "ok")
        assert state in initial
        assert initial[state] == pytest.approx(
            3e-3 * (1 - 3e-3) * (1 - 3e-6), abs=1e-12
        )


class TestProductChain:
    def test_running_example_size(self, cooling_sdft):
        product = build_product(cooling_sdft)
        # 2^3 static combinations x reachable dynamic combinations.
        assert product.n_states == 32
        assert product.chain.failed  # some failed states exist

    def test_failed_states_fail_top(self, cooling_sdft):
        product = build_product(cooling_sdft)
        for state in product.chain.failed:
            assert product.semantics.fails_top(state)

    def test_rates_accumulate(self, cooling_sdft):
        product = build_product(cooling_sdft)
        # Every rate positive; transitions only between consistent states.
        for (source, target), rate in product.chain.rates.items():
            assert rate > 0.0
            assert product.semantics.is_consistent(source)
            assert product.semantics.is_consistent(target)

    def test_max_states_guard(self, cooling_sdft):
        with pytest.raises(ChainTooLargeError):
            build_product(cooling_sdft, max_states=3)

    def test_max_states_guard_precedes_initial_enumeration(self):
        """BWR's 67 static events alone give 2^67 initial combinations."""
        model = build_bwr()
        started = time.perf_counter()
        with pytest.raises(ChainTooLargeError):
            analyze_exact(model, 24.0, max_states=1000)
        assert time.perf_counter() - started < 1.0

    def test_known_failure_probability(self, cooling_sdft):
        """Regression pin of the exact value (validated against the
        simulator and the per-cutset method elsewhere)."""
        product = build_product(cooling_sdft)
        value = reach_probability(product.chain, 24.0)
        assert value == pytest.approx(3.5055e-4, rel=1e-3)


class TestSimulator:
    """The crude engine of :mod:`repro.ctmc.rare` on the running example."""

    def test_matches_exact_product(self, cooling_sdft):
        product = build_product(cooling_sdft)
        exact = reach_probability(product.chain, 24.0)
        result = estimate_failure_probability(
            cooling_sdft, 24.0, engine="crude", max_runs=60_000, seed=123
        )
        lower, upper = result.interval()
        assert lower <= exact <= upper

    def test_seed_determinism(self, cooling_sdft):
        a = estimate_failure_probability(
            cooling_sdft, 24.0, engine="crude", max_runs=2000, seed=9
        )
        b = estimate_failure_probability(
            cooling_sdft, 24.0, engine="crude", max_runs=2000, seed=9
        )
        assert a == b

    def test_zero_horizon_counts_initial_failures(self, cooling_sdft):
        result = estimate_failure_probability(
            cooling_sdft, 0.0, engine="crude", max_runs=5000, seed=1
        )
        # Only static initial failures can fail the top at t=0: roughly
        # p(e) + p(a)p(c) ~ 1.2e-5; with 5000 runs usually zero failures.
        assert result.estimate < 0.01

    def test_confidence_interval_brackets_estimate(self, cooling_sdft):
        result = estimate_failure_probability(
            cooling_sdft, 24.0, engine="crude", max_runs=3000, seed=2
        )
        low, high = result.interval(sigmas=1.96)
        assert low <= result.estimate <= high

    def test_negative_horizon_rejected(self, cooling_sdft):
        with pytest.raises(ValueError):
            estimate_failure_probability(
                cooling_sdft, -1.0, engine="crude", max_runs=10
            )
