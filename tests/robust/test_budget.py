"""Unit tests of the cooperative budget (repro.robust.budget)."""

from __future__ import annotations

import pytest

from repro.errors import BudgetExceededError
from repro.robust.budget import UNLIMITED, Budget


class TestUnlimited:
    def test_all_checks_are_noops(self, fake_clock):
        budget = Budget(clock=fake_clock)
        fake_clock.advance(1e9)
        budget.check_deadline("anywhere")
        budget.charge_states(10**9, "anywhere")
        for _ in range(1000):
            budget.charge_cutset("anywhere")
        assert budget.unlimited
        assert not budget.expired()
        assert budget.remaining_seconds() is None

    def test_shared_unlimited_instance(self):
        assert UNLIMITED.unlimited

    def test_any_axis_makes_it_limited(self):
        assert not Budget(wall_seconds=1.0).unlimited
        assert not Budget(max_total_states=1).unlimited
        assert not Budget(max_cutsets=1).unlimited


class TestDeadline:
    def test_ok_before_expiry(self, fake_clock):
        budget = Budget(wall_seconds=10.0, clock=fake_clock)
        fake_clock.advance(9.9)
        budget.check_deadline("mocus")
        assert not budget.expired()
        assert budget.remaining_seconds() == pytest.approx(0.1)

    def test_raises_after_expiry(self, fake_clock):
        budget = Budget(wall_seconds=10.0, clock=fake_clock)
        fake_clock.advance(10.5)
        assert budget.expired()
        with pytest.raises(BudgetExceededError) as excinfo:
            budget.check_deadline("mocus")
        assert excinfo.value.stage == "mocus"
        assert "10" in str(excinfo.value)

    def test_elapsed_tracks_clock(self, fake_clock):
        budget = Budget(clock=fake_clock)
        fake_clock.advance(3.25)
        assert budget.elapsed_seconds() == pytest.approx(3.25)

    def test_zero_deadline_expires_immediately(self, fake_clock):
        budget = Budget(wall_seconds=0.0, clock=fake_clock)
        assert budget.expired()

    def test_negative_deadline_rejected(self):
        with pytest.raises(ValueError):
            Budget(wall_seconds=-1.0)

    def test_nan_deadline_rejected(self):
        # A NaN deadline compares false against every clock reading,
        # so it would never expire.
        with pytest.raises(ValueError):
            Budget(wall_seconds=float("nan"))


class TestStateBudget:
    def test_accumulates_until_cap(self):
        budget = Budget(max_total_states=100)
        budget.charge_states(60, "quantify")
        budget.charge_states(40, "quantify")
        assert budget.states_charged == 100
        with pytest.raises(BudgetExceededError) as excinfo:
            budget.charge_states(1, "quantify")
        assert excinfo.value.stage == "quantify"


class TestCutsetBudget:
    def test_counts_completions(self):
        budget = Budget(max_cutsets=3)
        for _ in range(3):
            budget.charge_cutset("mocus")
        with pytest.raises(BudgetExceededError) as excinfo:
            budget.charge_cutset("mocus")
        assert excinfo.value.stage == "mocus"
        assert budget.cutsets_charged == 4


def test_repr_names_the_configured_axes():
    assert "unlimited" in repr(Budget())
    text = repr(Budget(wall_seconds=5.0, max_cutsets=7))
    assert "wall=5s" in text
    assert "cutsets<=7" in text
