"""Tests of the synthetic PSA generator."""

from repro.ft.mocus import MocusOptions, mocus
from repro.ft.validate import tree_stats
from repro.lint import lint
from repro.models.synthetic import SyntheticConfig, build_synthetic

SMALL = SyntheticConfig(
    seed=7,
    n_initiators=2,
    n_frontline=3,
    n_support=2,
    components_per_train=3,
    sequences_per_initiator=2,
    probability_range=(1e-4, 1e-2),
)


class TestDeterminism:
    def test_same_seed_same_model(self):
        a = build_synthetic(SMALL)
        b = build_synthetic(SMALL)
        assert sorted(a.events) == sorted(b.events)
        assert all(
            a.events[n].probability == b.events[n].probability for n in a.events
        )
        assert sorted(a.gates) == sorted(b.gates)

    def test_different_seed_different_probabilities(self):
        a = build_synthetic(SMALL)
        from dataclasses import replace

        b = build_synthetic(replace(SMALL, seed=8))
        assert any(
            a.events[n].probability != b.events[n].probability
            for n in a.events
            if n in b.events
        )


class TestStructure:
    def test_valid_and_fully_reachable(self):
        report = lint(build_synthetic(SMALL))
        assert not report.errors, report.errors
        dead = [d for d in report.diagnostics if d.code in ("SD101", "SD102")]
        assert not dead, dead

    def test_redundant_trains_are_symmetric(self):
        tree = build_synthetic(SMALL)
        for c in range(SMALL.components_per_train):
            a = tree.events[f"FL-0-A-C{c}"].probability
            b = tree.events[f"FL-0-B-C{c}"].probability
            assert a == b

    def test_support_chaining(self):
        tree = build_synthetic(SMALL)
        # SUP-0 trains reference SUP-1 trains (chain depth >= 1).
        children = tree.gates["SUP-0-TRAIN-A"].children
        assert "SUP-1-TRAIN-A" in children

    def test_scaled_config_grows(self):
        big = SMALL.scaled(2.0)
        assert big.n_frontline == 6
        assert big.components_per_train == 6
        small_stats = tree_stats(build_synthetic(SMALL))
        big_stats = tree_stats(build_synthetic(big))
        assert big_stats.n_events > small_stats.n_events

    def test_ccf_events_present(self):
        tree = build_synthetic(SMALL)
        assert "FL-0-CCF" in tree.events

    def test_no_ccf_option(self):
        from dataclasses import replace

        tree = build_synthetic(replace(SMALL, include_ccf=False))
        assert "FL-0-CCF" not in tree.events


class TestAnalysability:
    def test_mocus_terminates_with_cutoff(self):
        tree = build_synthetic(SMALL)
        result = mocus(tree, MocusOptions(cutoff=1e-12))
        assert len(result.cutsets) > 10
        assert result.cutsets.rare_event() > 0.0

    def test_ccf_cutsets_are_small(self):
        """CCF events short-circuit the train redundancy: some cutset
        consists of an initiating event plus CCF events only."""
        tree = build_synthetic(SMALL)
        cutsets = mocus(tree, MocusOptions(cutoff=1e-12)).cutsets
        assert any(
            len(c) <= 1 + SMALL.systems_per_sequence
            and sum(1 for name in c if "CCF" in name) >= 1
            for c in cutsets
        )
