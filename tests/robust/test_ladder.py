"""The degradation ladder: exact → §VIII bound.

Each test forces failures at a specific rung via fault injection and
checks both the rung the ladder lands on and that the degraded value
still brackets the exact (fault-free) answer — on the paper's cooling
example, and as a property over random SD fault trees.
"""

from __future__ import annotations

import dataclasses
from contextlib import nullcontext

import pytest
from hypothesis import given, settings

from repro.core.analyzer import AnalysisOptions, analyze
from repro.core.cutset_model import build_cutset_model
from repro.core.quantify import bound_record, quantify_cutset
from repro.errors import BudgetExceededError, NumericalError
from repro.robust import faults
from repro.robust.budget import Budget
from repro.robust.ladder import quantify_with_ladder
from tests.strategies import mixed_sd_fault_trees

CUTSET = frozenset({"b", "d"})
HORIZON = 24.0


@pytest.fixture
def clean_value(cooling_sdft):
    """The exact p̃({b,d}) with nothing injected."""
    return quantify_cutset(cooling_sdft, CUTSET, HORIZON).probability


def test_clean_run_stays_on_the_exact_rung(cooling_sdft, clean_value):
    outcome = quantify_with_ladder(cooling_sdft, CUTSET, HORIZON)
    assert outcome.rung == "exact"
    assert not outcome.degraded
    assert outcome.attempts == ()
    assert outcome.record.probability == pytest.approx(clean_value)


def test_persistent_solver_failure_lands_on_the_bound_rung(
    cooling_sdft, clean_value
):
    with faults.inject("transient_solve", NumericalError("forced")):
        outcome = quantify_with_ladder(cooling_sdft, CUTSET, HORIZON)
    assert outcome.rung == "bound"
    assert outcome.degraded
    assert [a.rung for a in outcome.attempts] == ["exact"]
    assert "forced" in outcome.attempts[0].error
    record = outcome.record
    assert record.bounded
    assert record.lower_bound <= clean_value <= record.probability


def test_bound_rung_serves_the_oversize_record(cooling_sdft):
    """The ladder's last rung is the §VIII record an oversized chain gets."""
    with faults.inject("transient_solve", NumericalError("forced")):
        outcome = quantify_with_ladder(cooling_sdft, CUTSET, HORIZON)
    oversize = quantify_with_ladder(
        cooling_sdft, CUTSET, HORIZON, max_chain_states=1
    )
    assert [a.rung for a in oversize.attempts] == ["exact"]
    bound = bound_record(build_cutset_model(cooling_sdft, CUTSET), HORIZON)
    strip = lambda r: dataclasses.replace(r, solve_seconds=0.0)  # noqa: E731
    assert strip(outcome.record) == strip(oversize.record) == strip(bound)


def test_everything_failing_lands_on_the_bound_rung(cooling_sdft, clean_value):
    with faults.inject("chain_build", NumericalError("forced")), faults.inject(
        "transient_solve", NumericalError("forced")
    ):
        outcome = quantify_with_ladder(cooling_sdft, CUTSET, HORIZON)
    assert outcome.rung == "bound"
    assert [a.rung for a in outcome.attempts] == ["exact"]
    record = outcome.record
    assert record.bounded
    assert record.lower_bound <= clean_value <= record.probability


def test_failing_bound_rung_raises(cooling_sdft):
    """No rung left: the analyzer substitutes the static worst case."""
    with faults.inject("transient_solve", NumericalError("forced")), faults.inject(
        "bound", NumericalError("forced bound")
    ), pytest.raises(NumericalError, match="forced bound"):
        quantify_with_ladder(cooling_sdft, CUTSET, HORIZON)


def test_expired_budget_propagates(cooling_sdft):
    """A budget trip is the run's to handle, not a rung failure: the
    analyzer's budget path skips every remaining cutset at once."""
    with pytest.raises(BudgetExceededError):
        quantify_with_ladder(
            cooling_sdft, CUTSET, HORIZON, budget=Budget(wall_seconds=0.0)
        )


def test_static_cutsets_never_degrade(cooling_sdft):
    with faults.inject("transient_solve", NumericalError("forced")):
        outcome = quantify_with_ladder(cooling_sdft, frozenset({"e"}), HORIZON)
    assert outcome.rung == "exact"
    assert outcome.record.probability == pytest.approx(3e-6)


#: Float slack when testing containment (pure accumulation differences).
_RTOL = 1e-9


def _contains(lower, value, upper):
    slack = _RTOL * max(abs(value), abs(upper))
    return lower - slack <= value <= upper + slack


@pytest.mark.parametrize("degrade", ["transient_solve", "max_chain_states"])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(sdft=mixed_sd_fault_trees())
def test_degraded_records_bracket_the_exact_rung(degrade, sdft):
    """Every rung serves a provable bracket of the clean exact value.

    The exact rung is made to fail — by a persistent solver fault or by
    a one-state chain limit — so every dynamic cutset lands on the
    bound rung.  When both runs serve the rare-event sum, the degraded
    run's reported interval contains the clean total.  (When the
    degraded sum overshoots 1.0 the run serves ``mcs-min-cut-ub``,
    whose ceiling need not cover the clean rare-event sum.)
    """
    base = AnalysisOptions(horizon=HORIZON, cutoff=0.0, fault_isolation=True)
    clean = analyze(sdft, base)
    assert all(r.rung == "exact" for r in clean.records)
    exact = {r.cutset: r.probability for r in clean.records}

    if degrade == "transient_solve":
        arm, opts = faults.inject("transient_solve", NumericalError("forced")), base
    else:
        arm, opts = nullcontext(), dataclasses.replace(base, max_chain_states=1)
    with arm:
        degraded = analyze(sdft, opts)

    assert {r.cutset for r in degraded.records} == set(exact)
    for record in degraded.records:
        lower = record.probability if record.lower_bound is None else record.lower_bound
        assert _contains(lower, exact[record.cutset], record.probability), record
    if clean.method == degraded.method == "mcs-rare-event":
        lower, upper = degraded.failure_probability_interval()
        assert _contains(lower, clean.failure_probability, upper)
