"""Tests of the lumped quantification option."""

import pytest

from repro.core.analyzer import AnalysisOptions, analyze
from repro.core.quantify import quantify_cutset
from repro.core.sdft import SdFaultTreeBuilder
from repro.ctmc.builders import repairable


def _symmetric_triple():
    """Three identical repairable components under an AND: the product
    chain has 2^3 = 8 states, the lumped counter only 4."""
    b = SdFaultTreeBuilder("triple")
    names = []
    for i in range(3):
        name = f"d{i}"
        b.dynamic_event(name, repairable(0.02, 0.3))
        names.append(name)
    b.and_("top", *names)
    return b.build("top"), frozenset(names)


class TestLumpedQuantification:
    def test_same_probability(self):
        sdft, cutset = _symmetric_triple()
        plain = quantify_cutset(sdft, cutset, 24.0)
        lumped = quantify_cutset(sdft, cutset, 24.0, lump_chains=True)
        assert lumped.probability == pytest.approx(plain.probability, rel=1e-9)

    def test_fewer_states_solved(self):
        sdft, cutset = _symmetric_triple()
        plain = quantify_cutset(sdft, cutset, 24.0)
        lumped = quantify_cutset(sdft, cutset, 24.0, lump_chains=True)
        assert plain.chain_states == 8
        assert lumped.chain_states < plain.chain_states

    def test_analyzer_option_matches(self, cooling_sdft):
        base = analyze(cooling_sdft, AnalysisOptions(horizon=24.0))
        lumped = analyze(
            cooling_sdft, AnalysisOptions(horizon=24.0, lump_chains=True)
        )
        assert lumped.failure_probability == pytest.approx(
            base.failure_probability, rel=1e-9
        )

    def test_shared_chains_lump_identically(self):
        """Identical components share one chain object; the symmetric
        product of n copies lumps to n+1 counter states."""
        sdft, cutset = _symmetric_triple()
        lumped = quantify_cutset(sdft, cutset, 24.0, lump_chains=True)
        # Absorbing at the all-failed state: w-count 0..3 minus merged
        # absorbing states; at most 4 blocks.
        assert lumped.chain_states <= 4

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cache_hits_carry_the_lumped_rung(self, jobs):
        """``{s1, x}`` and ``{s2, x}`` share one ``FT_C`` signature, so the
        second is a cache hit; it is still a lumped value."""
        b = SdFaultTreeBuilder("shared-signature")
        b.static_event("s1", 1e-2).static_event("s2", 2e-2)
        b.dynamic_event("x", repairable(0.01, 0.1))
        b.or_("either", "s1", "s2")
        b.and_("top", "either", "x")
        result = analyze(
            b.build("top"),
            AnalysisOptions(horizon=24.0, lump_chains=True, jobs=jobs),
        )
        dynamic = [
            r for r in result.records if r.is_dynamic and not r.trivially_zero
        ]
        assert len(dynamic) == 2
        assert result.cache_hits == 1
        assert {r.rung for r in dynamic} == {"lumped"}
