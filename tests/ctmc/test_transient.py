"""Transient-analysis tests: closed forms, backend agreement, guards."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.ctmc.chain import Ctmc
from repro.ctmc.transient import (
    _checked_distribution,
    failure_probability,
    occupancy_integrals,
    reach_probability,
    steady_state,
    transient_distribution,
)
from repro.errors import NumericalError

from tests.strategies import small_ctmcs


def _birth(rate=0.3):
    return Ctmc(["a", "b"], {"a": 1.0}, {("a", "b"): rate}, ["b"])


def _stiff_repairable() -> Ctmc:
    return Ctmc(
        ["a", "b"], {"a": 1.0}, {("a", "b"): 1e9, ("b", "a"): 1e9}, ["b"]
    )


def _repairable(lam=0.2, mu=1.0):
    return Ctmc(
        ["ok", "fail"],
        {"ok": 1.0},
        {("ok", "fail"): lam, ("fail", "ok"): mu},
        ["fail"],
    )


class TestClosedForms:
    @pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 10.0, 100.0])
    def test_pure_birth(self, t):
        chain = _birth(0.3)
        distribution = transient_distribution(chain, t)
        assert distribution[1] == pytest.approx(1 - math.exp(-0.3 * t), abs=1e-10)

    @pytest.mark.parametrize("t", [0.5, 5.0, 50.0])
    def test_repairable_transient_availability(self, t):
        lam, mu = 0.2, 1.0
        chain = _repairable(lam, mu)
        distribution = transient_distribution(chain, t)
        # Standard two-state availability formula.
        expected = lam / (lam + mu) * (1 - math.exp(-(lam + mu) * t))
        assert distribution[1] == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("t", [0.5, 5.0, 50.0])
    def test_first_passage_ignores_repair(self, t):
        """Reach probability makes the target absorbing, so the repair
        transition cannot undo the first visit."""
        chain = _repairable(0.2, 50.0)
        assert failure_probability(chain, t) == pytest.approx(
            1 - math.exp(-0.2 * t), abs=1e-9
        )

    def test_erlang_two_phase(self):
        chain = Ctmc(
            ["p0", "p1", "p2"],
            {"p0": 1.0},
            {("p0", "p1"): 2.0, ("p1", "p2"): 2.0},
            ["p2"],
        )
        t = 1.3
        # Erlang(2, 2) CDF: 1 - e^{-2t}(1 + 2t).
        expected = 1 - math.exp(-2 * t) * (1 + 2 * t)
        assert failure_probability(chain, t) == pytest.approx(expected, abs=1e-10)


class TestBackends:
    @given(small_ctmcs(), st.floats(0.0, 20.0))
    def test_uniformization_matches_expm(self, chain, t):
        uni = transient_distribution(chain, t, method="uniformization")
        exp = transient_distribution(chain, t, method="expm")
        assert np.allclose(uni, exp, atol=1e-8)

    @given(small_ctmcs(), st.floats(0.1, 20.0))
    def test_reach_probability_backend_agreement(self, chain, t):
        a = reach_probability(chain, t, method="uniformization")
        b = reach_probability(chain, t, method="expm")
        assert a == pytest.approx(b, abs=1e-8)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            transient_distribution(_birth(), 1.0, method="laplace")


class TestProperties:
    @given(small_ctmcs(), st.floats(0.0, 10.0))
    def test_distribution_is_stochastic(self, chain, t):
        distribution = transient_distribution(chain, t)
        assert distribution.min() >= -1e-12
        assert distribution.sum() == pytest.approx(1.0, abs=1e-9)

    @given(small_ctmcs())
    def test_reach_probability_monotone_in_horizon(self, chain):
        values = [reach_probability(chain, t) for t in (0.5, 1.0, 5.0, 20.0)]
        for earlier, later in zip(values, values[1:]):
            assert later >= earlier - 1e-10

    def test_zero_horizon_reads_initial(self):
        chain = Ctmc(["a", "b"], {"b": 1.0}, {("b", "a"): 1.0}, ["b"])
        assert reach_probability(chain, 0.0) == pytest.approx(1.0)
        assert failure_probability(_birth(), 0.0) == 0.0

    def test_no_targets_is_zero(self):
        chain = Ctmc(["a"], {"a": 1.0}, {}, [])
        assert failure_probability(chain, 10.0) == 0.0

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            transient_distribution(_birth(), -1.0)


class TestAbsorbedIndexing:
    """``reach_probability`` must read target mass through the *absorbed*
    chain's index.  ``with_absorbing`` preserves state order today, so a
    chain whose absorbing variant reorders its states is the regression
    guard: indexing the transient vector through the original chain's
    index would misattribute probability mass.
    """

    class _ReorderingCtmc(Ctmc):
        def with_absorbing(self, absorbing):
            plain = super().with_absorbing(absorbing)
            return Ctmc(
                tuple(reversed(plain.states)),
                plain.initial,
                plain.rates,
                plain.failed,
            )

    def test_reordered_absorbed_chain_reads_correct_mass(self):
        lam, t = 0.2, 5.0
        chain = self._ReorderingCtmc(
            ["ok", "fail"],
            {"ok": 1.0},
            {("ok", "fail"): lam, ("fail", "ok"): 50.0},
            ["fail"],
        )
        # First-passage with the target absorbing: repair is irrelevant.
        expected = 1 - math.exp(-lam * t)
        assert reach_probability(chain, t) == pytest.approx(expected, abs=1e-9)

    def test_reordering_matches_order_preserving_chain(self):
        states = ["up", "degraded", "down"]
        initial = {"up": 1.0}
        rates = {
            ("up", "degraded"): 0.4,
            ("degraded", "up"): 0.1,
            ("degraded", "down"): 0.7,
        }
        plain = Ctmc(states, initial, rates, ["down"])
        reordering = self._ReorderingCtmc(states, initial, rates, ["down"])
        for t in (0.5, 3.0, 25.0):
            assert reach_probability(reordering, t) == pytest.approx(
                reach_probability(plain, t), abs=1e-12
            )


_HASH_SEED_SCRIPT = """
from repro.core.sdft import SdFaultTreeBuilder
from repro.ctmc.builders import erlang_failure, triggered_erlang
from repro.ctmc.product import build_product
from repro.ctmc.transient import reach_probability

b = SdFaultTreeBuilder("erlang-vote")
b.static_event("s", 0.02)
b.dynamic_event("x", erlang_failure(3, 0.02, 0.1))
b.dynamic_event("y", erlang_failure(2, 0.03))
b.dynamic_event("z", triggered_erlang(3, 0.05, 0.2))
b.or_("trig", "x", "s")
b.atleast("vote", 2, "x", "y", "z")
b.or_("top", "vote", "s")
b.trigger("trig", "z")
print(repr(reach_probability(build_product(b.build("top")).chain, 24.0)))
"""


class TestHashSeedIndependence:
    """The failed set is a frozenset of tuples holding strings, so its
    iteration order follows ``PYTHONHASHSEED``; the reach probability of
    a product chain with many failed states must not."""

    @staticmethod
    def _solve(hash_seed: str) -> str:
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=source_root)
        completed = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        return completed.stdout.strip()

    def test_reach_probability_is_bit_identical_across_hash_seeds(self):
        # Seeds 0 and 2 summed the failed mass in different orders and
        # disagreed in the last ulp before the sum was ordered by index.
        assert self._solve("0") == self._solve("2")


class TestEpsilon:
    def test_tighter_epsilon_closer_to_expm(self):
        chain = _repairable(0.5, 3.0)
        exact = transient_distribution(chain, 10.0, method="expm")
        loose = transient_distribution(chain, 10.0, epsilon=1e-3)
        tight = transient_distribution(chain, 10.0, epsilon=1e-13)
        assert np.abs(tight - exact).max() <= np.abs(loose - exact).max() + 1e-13

    def test_stiff_chain_guard(self):
        # Enormous q*t exceeds the term limit and must raise at once,
        # before the series loop, not after four million mat-vecs.
        with pytest.raises(NumericalError, match="uniformization needs more"):
            transient_distribution(_stiff_repairable(), 1e4)

    def test_stiff_occupancy_guard(self):
        with pytest.raises(NumericalError, match="occupancy series needs more"):
            occupancy_integrals(_stiff_repairable(), 1e4)

    def test_stiff_chain_guard_spares_absorbing_chains(self):
        # The same q*t on a chain that absorbs: the early exit still
        # finishes the series within a few terms, so nothing raises.
        chain = Ctmc(["a", "b"], {"a": 1.0}, {("a", "b"): 1e9}, ["b"])
        distribution = transient_distribution(chain, 1e4)
        assert distribution[chain.index["b"]] == pytest.approx(1.0, abs=1e-9)


class TestEarlyExit:
    """The absorbed-mass early exit of the uniformization series.

    Once (almost) all probability sits on absorbing states, the iterates
    are fixed points and the remaining Poisson tail is added
    analytically.  The exit must agree with the ``expm`` oracle and
    never fire on chains without absorbing states.
    """

    @pytest.mark.parametrize("t", [50.0, 200.0, 1000.0])
    def test_matches_expm_oracle_on_absorbing_chains(self, t):
        """Long horizons on an absorbing chain: exactly the reachability
        shape where the exit triggers, checked against the dense oracle."""
        chain = Ctmc(
            ["up", "degraded", "down"],
            {"up": 1.0},
            {
                ("up", "degraded"): 0.4,
                ("degraded", "up"): 0.1,
                ("degraded", "down"): 0.7,
            },
            ["down"],
        )
        uni = transient_distribution(chain, t, method="uniformization")
        exp = transient_distribution(chain, t, method="expm")
        assert np.allclose(uni, exp, atol=1e-9)

    def test_reach_probability_agreement_after_exit(self):
        chain = _repairable(0.2, 1.0)
        # with_absorbing makes "fail" a fixed point → the exit path runs.
        a = reach_probability(chain, 500.0, method="uniformization")
        b = reach_probability(chain, 500.0, method="expm")
        assert a == pytest.approx(b, abs=1e-10)

    def test_converged_series_is_cut_far_below_the_term_limit(self):
        """A fast-absorbing chain over a huge horizon needs more Poisson
        terms than the guard allows — only the early exit lets the solve
        return (correctly) instead of raising."""
        chain = _birth(5.0)
        horizon = 1e6  # q*t ≈ 5.1e6 > _MAX_TERMS without the exit
        assert reach_probability(chain, horizon) == pytest.approx(1.0)

    def test_exit_respects_epsilon(self):
        chain = Ctmc(
            ["a", "b", "sink"],
            {"a": 1.0},
            {("a", "b"): 2.0, ("b", "a"): 0.5, ("b", "sink"): 3.0},
            ["sink"],
        )
        exact = transient_distribution(chain, 300.0, method="expm")
        for epsilon in (1e-6, 1e-10, 1e-13):
            approx = transient_distribution(chain, 300.0, epsilon=epsilon)
            assert np.abs(approx - exact).max() <= 10 * epsilon

    def test_no_absorbing_states_unaffected(self):
        """Fully mobile chains must never take the exit (the stiff-chain
        guard above still fires); the plain series result is unchanged."""
        chain = _repairable(0.5, 3.0)
        uni = transient_distribution(chain, 40.0)
        exp = transient_distribution(chain, 40.0, method="expm")
        assert np.allclose(uni, exp, atol=1e-9)


class TestOccupancy:
    from repro.ctmc.transient import occupancy_integrals

    def test_entries_sum_to_horizon(self):
        from repro.ctmc.transient import occupancy_integrals

        chain = _repairable(0.3, 1.0)
        occupancy = occupancy_integrals(chain, 17.0)
        assert occupancy.sum() == pytest.approx(17.0, abs=1e-6)

    def test_matches_downtime(self):
        """The failed-state occupancy is exactly the expected downtime."""
        from repro.ctmc.analysis import expected_downtime
        from repro.ctmc.transient import occupancy_integrals

        frozen = Ctmc(["a", "b"], {"a": 0.25, "b": 0.75}, {}, ["b"])
        cases = ((_repairable(0.3, 1.0), 40.0), (frozen, 8.0), (_birth(), 0.0))
        for chain, horizon in cases:
            occupancy = occupancy_integrals(chain, horizon)
            downtime = expected_downtime(chain, horizon)
            assert occupancy[chain.failed_mask()].sum() == downtime
        assert expected_downtime(frozen, 8.0) == 6.0
        assert expected_downtime(_birth(), 0.0) == 0.0

    def test_frozen_chain(self):
        from repro.ctmc.transient import occupancy_integrals

        chain = Ctmc(["a", "b"], {"a": 0.25, "b": 0.75}, {}, [])
        occupancy = occupancy_integrals(chain, 8.0)
        assert occupancy[0] == pytest.approx(2.0)
        assert occupancy[1] == pytest.approx(6.0)

    def test_zero_horizon(self):
        from repro.ctmc.transient import occupancy_integrals

        assert occupancy_integrals(_birth(), 0.0).sum() == 0.0

    @given(small_ctmcs(), st.floats(0.1, 15.0))
    def test_occupancy_vs_quadrature(self, chain, horizon):
        """The uniformization integral matches trapezoidal quadrature of
        the transient distribution."""
        from repro.ctmc.transient import occupancy_integrals

        occupancy = occupancy_integrals(chain, horizon)
        grid = np.linspace(0.0, horizon, 101)
        samples = np.array([transient_distribution(chain, u) for u in grid])
        quadrature = np.trapezoid(samples, grid, axis=0)
        assert np.allclose(occupancy, quadrature, atol=horizon * 2e-3)


class TestMassCheck:
    """Invariant P2, checked on every transient solve.

    The accepting cases live in ``tests/robust/test_verify.py``.
    """

    @pytest.mark.parametrize(
        "entries, excerpt",
        [
            ([0.5, float("nan"), 0.5], "non-finite"),
            ([0.7, -0.2, 0.5], "negative"),
            ([0.2, 0.2], "mass"),
            ([0.7, 0.7], "mass"),
        ],
    )
    def test_rejects_broken_distributions(self, entries, excerpt):
        with pytest.raises(NumericalError, match=excerpt):
            _checked_distribution(np.array(entries), "pi")


class TestSteadyState:
    def test_two_state_balance(self):
        chain = _repairable(0.2, 1.0)
        pi = steady_state(chain)
        assert pi[1] == pytest.approx(0.2 / 1.2, abs=1e-10)

    def test_reducible_chain_rejected(self):
        chain = Ctmc(["a", "b"], {"a": 1.0}, {}, [])
        with pytest.raises(NumericalError):
            steady_state(chain)
