"""Acceptance tests: the resilient pipeline end to end.

The scenarios mirror the issue's acceptance criteria: inject faults in
three distinct pipeline stages (transient solve, chain build, MOCUS
budget) and check that ``analyze`` still returns a result whose health
report enumerates every degradation and whose interval contains the
fault-free answer.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import pytest

import repro
from repro.core.analyzer import AnalysisOptions, analyze
from repro.errors import AnalysisError, NumericalError
from repro.robust import faults

HORIZON = 24.0
FALLBACK_RUNGS = ("bound", "skipped")


@pytest.fixture
def clean(cooling_sdft):
    return analyze(cooling_sdft, AnalysisOptions(horizon=HORIZON))


def _assert_degraded_but_bracketing(result, clean):
    """The three acceptance properties of every fault scenario."""
    assert result.is_degraded
    lower, upper = result.failure_probability_interval()
    assert lower <= clean.failure_probability <= upper
    # Every record on a fallback rung is enumerated in the health report
    # (budget-skipped cutsets show up as budget hits instead).
    fallback = {r.cutset for r in result.records if r.rung in FALLBACK_RUNGS}
    enumerated = result.health.degraded_cutsets() | {
        frozenset(e.cutset)
        for e in result.health.budget_hits
        if e.cutset is not None
    }
    assert fallback <= enumerated or result.mcs_truncated


def test_transient_solve_fault_degrades_not_crashes(cooling_sdft, clean):
    with faults.inject("transient_solve", NumericalError("forced")):
        result = analyze(
            cooling_sdft, AnalysisOptions(horizon=HORIZON, fault_isolation=True)
        )
    _assert_degraded_but_bracketing(result, clean)
    # Every dynamic cutset needed the bound rung; statics stay exact.
    assert result.n_degraded_cutsets == result.n_dynamic_cutsets > 0
    assert all(
        r.rung == "bound" for r in result.records if r.rung in FALLBACK_RUNGS
    )
    assert result.health.retries  # the failed exact attempts


def test_chain_build_fault_degrades_not_crashes(cooling_sdft, clean):
    with faults.inject("chain_build", AnalysisError("forced")):
        result = analyze(
            cooling_sdft, AnalysisOptions(horizon=HORIZON, fault_isolation=True)
        )
    _assert_degraded_but_bracketing(result, clean)
    assert result.n_degraded_cutsets > 0


def test_oversized_chains_degrade_not_crash(cooling_sdft, clean):
    # A real (non-injected) failure mode: every product chain exceeds the
    # per-cutset state guard, so each such cutset fails once (exact)
    # and is bounded.
    result = analyze(
        cooling_sdft,
        AnalysisOptions(horizon=HORIZON, fault_isolation=True, max_chain_states=1),
    )
    _assert_degraded_but_bracketing(result, clean)
    bounded = {r.cutset for r in result.records if r.rung == "bound"}
    assert bounded
    retries = [(frozenset(e.cutset), e.rung) for e in result.health.retries]
    assert sorted(retries, key=str) == sorted(
        ((cutset, "exact") for cutset in bounded), key=str
    )


def test_mocus_budget_yields_truncated_result(cooling_sdft, clean):
    result = analyze(
        cooling_sdft,
        AnalysisOptions(horizon=HORIZON, fault_isolation=True, budget_cutsets=2),
    )
    assert result.mcs_truncated
    assert result.mcs_remainder_bound > 0.0
    assert result.n_cutsets < clean.n_cutsets
    assert result.health.budget_hits
    _assert_degraded_but_bracketing(result, clean)


def test_expired_deadline_yields_partial_result(cooling_sdft, clean):
    result = analyze(
        cooling_sdft,
        AnalysisOptions(horizon=HORIZON, fault_isolation=True, wall_seconds=0.0),
    )
    assert result.mcs_truncated
    assert result.health.budget_hits
    lower, upper = result.failure_probability_interval()
    assert lower <= clean.failure_probability <= upper


def test_combined_faults_and_budget(cooling_sdft, clean):
    with faults.inject("transient_solve", NumericalError("forced")):
        result = analyze(
            cooling_sdft,
            AnalysisOptions(
                horizon=HORIZON, fault_isolation=True, budget_cutsets=3
            ),
        )
    assert result.mcs_truncated
    _assert_degraded_but_bracketing(result, clean)


def test_without_isolation_faults_still_crash(cooling_sdft):
    with faults.inject("transient_solve", NumericalError("forced")):
        with pytest.raises(NumericalError, match="forced"):
            analyze(cooling_sdft, AnalysisOptions(horizon=HORIZON))


def test_clean_run_reports_clean_health(clean):
    assert not clean.is_degraded
    assert clean.health.is_clean
    assert clean.n_degraded_cutsets == 0
    lower, upper = clean.failure_probability_interval()
    assert lower == upper == pytest.approx(clean.failure_probability)


def test_degraded_summary_is_loud(cooling_sdft):
    with faults.inject("transient_solve", NumericalError("forced")):
        result = analyze(
            cooling_sdft, AnalysisOptions(horizon=HORIZON, fault_isolation=True)
        )
    summary = result.summary()
    assert "DEGRADED" in summary
    assert "run health" in summary


def test_isolated_clean_run_matches_plain_run(cooling_sdft, clean):
    # Fault isolation must be free when nothing goes wrong.
    result = analyze(
        cooling_sdft, AnalysisOptions(horizon=HORIZON, fault_isolation=True)
    )
    assert not result.is_degraded
    assert result.failure_probability == pytest.approx(
        clean.failure_probability, rel=1e-12
    )


def test_budget_trip_is_not_a_ladder_failure(cooling_sdft):
    """A state budget trips the same way with fault isolation on or off.

    The budget allows the first dynamic chain (4 states) but not the
    second: both runs keep one exact record, skip the rest under one
    ``budget`` event, and retry or degrade nothing.
    """
    runs = [
        analyze(
            cooling_sdft,
            AnalysisOptions(
                horizon=HORIZON, max_total_states=5, fault_isolation=isolation
            ),
        )
        for isolation in (False, True)
    ]
    timeless = [
        [dataclasses.replace(r, solve_seconds=0.0) for r in run.records]
        for run in runs
    ]
    assert timeless[0] == timeless[1]
    assert [r.rung for r in runs[0].records] == ["exact"] + ["skipped"] * 4
    for run in runs:
        assert len(run.health.budget_hits) == 1
        assert not run.health.retries
        assert not run.health.degradations


_BUDGETED_BWR_SCRIPT = """
from repro.core.analyzer import AnalysisOptions, analyze
from repro.models.bwr import TRIGGER_STAGES, BwrConfig, build_bwr

model = build_bwr(BwrConfig(repair_rate=0.05, triggers=TRIGGER_STAGES))
opts = AnalysisOptions(horizon=24.0, cutoff=1e-15, max_total_states=300)
print(repr(analyze(model, opts).failure_probability))
"""


def test_skipped_values_do_not_depend_on_the_hash_seed():
    """Skipped records carry the static worst case of their cutset.

    On the budgeted BWR study some of those products sit right at the
    cutoff, so a product taken in frozenset order served a different
    total under different ``PYTHONHASHSEED`` values.
    """
    source_root = os.path.dirname(os.path.dirname(repro.__file__))

    def served(hash_seed: str) -> str:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=source_root)
        completed = subprocess.run(
            [sys.executable, "-c", _BUDGETED_BWR_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        )
        return completed.stdout.strip()

    assert served("0") == served("1")
