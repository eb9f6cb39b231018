"""The integer-coded product core against the label-dict oracle.

:func:`repro.ctmc.product.build_product`, the label views of
:class:`~repro.ctmc.product.SdSemantics`, the uniformized DTMC and the
simulators must reproduce, bit for bit and in the same order, what the
label semantics (``tests/ctmc/product_oracle.py``) and the per-row LIL
diagonal fix produced.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import sparse

from repro.core.sdft import SdFaultTreeBuilder
from repro.ctmc.builders import erlang_failure, triggered_erlang
from repro.ctmc.chain import Ctmc
from repro.ctmc.product import SdSemantics, build_product
from repro.ctmc.rare import RareEventConfig, estimate_failure_probability
from repro.ctmc.simulate import simulate_failure_probability
from repro.ctmc.transient import _uniformized

from tests.ctmc.product_oracle import LabelSemantics, build_product_oracle
from tests.strategies import sd_fault_trees, small_ctmcs


def _erlang_vote():
    """Erlang phases, a triggered Erlang spare and a 2-of-3 vote."""
    b = SdFaultTreeBuilder("erlang-vote")
    b.static_event("s", 0.02)
    b.dynamic_event("x", erlang_failure(3, 0.02, 0.1))
    b.dynamic_event("y", erlang_failure(2, 0.03))
    b.dynamic_event("z", triggered_erlang(3, 0.05, 0.2))
    b.or_("trig", "x", "s")
    b.atleast("vote", 2, "x", "y", "z")
    b.or_("top", "vote", "s")
    b.trigger("trig", "z")
    return b.build("top")


@pytest.fixture(scope="module")
def erlang_bwr_models():
    """The cutset models one analysis of the 3-phase Erlang BWR solves."""
    import repro.core.quantify as quantify
    from repro.core.analyzer import AnalysisOptions, analyze
    from repro.models.bwr import TRIGGER_STAGES, BwrConfig, build_bwr

    captured = []
    original = quantify.build_product

    def capture(model, max_states=200_000):
        captured.append(model)
        return original(model, max_states=max_states)

    model = build_bwr(BwrConfig(phases=3, repair_rate=0.05, triggers=TRIGGER_STAGES))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quantify, "build_product", capture)
        analyze(model, AnalysisOptions(horizon=24.0, cutoff=1e-15, jobs=1))
    return captured


def assert_matches_oracle(sdft) -> None:
    product = build_product(sdft)
    states, initial, rates, failed, by_event = build_product_oracle(sdft)
    expected = Ctmc(states, initial, rates, failed)
    chain = product.chain
    assert chain.states == expected.states
    assert list(chain.initial.items()) == list(expected.initial.items())
    assert list(chain.rates.items()) == list(expected.rates.items())
    assert chain.failed == expected.failed
    assert chain.fingerprint() == expected.fingerprint()
    assert [(k, list(v.items())) for k, v in product.transition_events.items()] == [
        (k, list(v.items())) for k, v in by_event.items()
    ]


def _lil_uniformized(chain):
    """The per-row LIL diagonal fix ``_uniformized`` used to run."""
    rate_matrix = chain.rate_matrix()
    exit_rates = np.asarray(rate_matrix.sum(axis=1)).ravel()
    q = float(exit_rates.max())
    if q <= 0.0:
        return None
    q *= 1.02
    dtmc = (rate_matrix / q + sparse.eye(chain.n_states, format="csr")).tolil()
    row_sums = np.asarray(dtmc.sum(axis=1)).ravel()
    for i, total in enumerate(row_sums):
        deficit = 1.0 - total
        if deficit != 0.0:
            dtmc[i, i] = dtmc[i, i] + deficit
    return dtmc.tocsr(), exit_rates, q


def assert_same_uniformized(chain) -> None:
    expected, actual = _lil_uniformized(chain), _uniformized(chain)
    if expected is None:
        assert actual is None
        return
    (want, want_exit, want_q), (got, got_exit, got_q) = expected, actual
    # Raw CSR arrays, deliberately not compared after sort_indices().
    assert got.indptr.tolist() == want.indptr.tolist()
    assert got.indices.tolist() == want.indices.tolist()
    assert got.data.tobytes() == want.data.tobytes()
    assert got_exit.tobytes() == want_exit.tobytes()
    assert got_q == want_q


class TestBuildProduct:
    @given(sd_fault_trees())
    def test_random_trees_match_the_oracle(self, sdft):
        assert_matches_oracle(sdft)

    def test_cooling_matches_the_oracle(self, cooling_sdft):
        assert_matches_oracle(cooling_sdft)

    def test_erlang_vote_matches_the_oracle(self):
        assert_matches_oracle(_erlang_vote())

    def test_erlang_bwr_cutset_models_match_the_oracle(self, erlang_bwr_models):
        # The base model's unique cutset models hold ~10k product states.
        assert len(erlang_bwr_models) >= 20
        assert sum(build_product(m).n_states for m in erlang_bwr_models) > 5000
        for model in erlang_bwr_models:
            assert_matches_oracle(model)


class TestLabelViews:
    @settings(max_examples=30)
    @given(sd_fault_trees())
    def test_label_methods_match_the_oracle(self, sdft):
        semantics, oracle = SdSemantics(sdft), LabelSemantics(sdft)
        assert semantics.initial_states() == oracle.initial_states()
        for state in build_product(sdft).chain.states:
            assert semantics.gate_status(state) == oracle.gate_status(state)
            assert semantics.fails_top(state) == oracle.fails_top(state)
            assert semantics.local_transitions(state) == oracle.local_transitions(
                state
            )
            for name, destination, _ in oracle.local_transitions(state):
                moved = list(state)
                moved[oracle.position[name]] = destination
                assert semantics.make_consistent(
                    tuple(moved)
                ) == oracle.make_consistent(tuple(moved))


class TestUniformizedDtmc:
    @given(small_ctmcs())
    def test_random_chains(self, chain):
        assert_same_uniformized(chain)
        assert_same_uniformized(chain.with_absorbing(chain.failed))

    def test_erlang_bwr_product_chains(self, erlang_bwr_models):
        for model in erlang_bwr_models:
            chain = build_product(model).chain
            assert_same_uniformized(chain)
            assert_same_uniformized(chain.with_absorbing(chain.failed))


def assert_estimate(result, expected) -> None:
    estimate, standard_error, n_runs, n_failures = expected
    assert (result.n_runs, result.n_failures) == (n_runs, n_failures)
    assert result.estimate == pytest.approx(estimate, rel=1e-12)
    assert result.standard_error == pytest.approx(standard_error, rel=1e-12)


class TestSimulatorsUnchanged:
    """Fixed-seed estimates, pinned from the label-semantics kernel."""

    def test_crude_simulator(self, cooling_sdft):
        result = simulate_failure_probability(cooling_sdft, 2400.0, n_runs=3000, seed=2)
        assert (result.estimate, result.n_failures) == (0.055, 165)
        result = simulate_failure_probability(_erlang_vote(), 24.0, n_runs=2000, seed=4)
        assert (result.estimate, result.n_failures) == (0.098, 196)

    @pytest.mark.parametrize(
        "engine, expected",
        [
            ("crude", (0.08566666666666667, 0.005110577491542613, 3000, 257)),
            ("is", (0.0894404861540651, 0.0040374671351612445, 2000, 1990)),
            ("splitting", (0.09518070600910059, 0.007281061627332065, 3453, 1742)),
        ],
    )
    def test_rare_event_engines_on_erlang_vote(self, engine, expected):
        result = estimate_failure_probability(
            _erlang_vote(),
            24.0,
            RareEventConfig(engine=engine, max_runs=3000),
            seed=6,
        )
        assert_estimate(result, expected)

    @pytest.mark.parametrize(
        "engine, expected",
        [
            ("is", (0.00030438669377371135, 2.821641540214499e-05, 4000, 3992)),
            ("splitting", (0.0003473855317631847, 7.782555373924732e-05, 4373, 2207)),
        ],
    )
    def test_rare_event_engines_on_cooling(self, cooling_sdft, engine, expected):
        result = estimate_failure_probability(
            cooling_sdft,
            24.0,
            RareEventConfig(engine=engine, max_runs=4000),
            seed=5,
        )
        assert_estimate(result, expected)
