"""The parallel determinism contract: ``jobs=N`` equals ``jobs=1`` bit for bit.

Everything analysis-relevant — records, totals, cache counters, health
events — must be identical whichever execution strategy ran.  Only
wall-clock observables (``solve_seconds``, ``timings``) and the
execution description (``perf.jobs``, ``perf.worker_faults``) may
differ.
"""

import dataclasses

from repro.core.analyzer import AnalysisOptions, analyze
from repro.errors import NumericalError
from repro.ft.mocus import MocusOptions, mocus
from repro.models.bwr import TRIGGER_STAGES, BwrConfig, build_bwr
from repro.models.enrich import dynamize, plan_dynamization
from repro.models.synthetic import model_1
from repro.robust import faults


def masked_records(result):
    """The records with wall-clock noise removed (all else must match)."""
    return [
        dataclasses.replace(r, solve_seconds=0.0) for r in result.records
    ]


def assert_identical(serial, parallel):
    """Bit-identical analysis values; only execution stats may differ."""
    assert parallel.failure_probability == serial.failure_probability
    assert parallel.static_bound == serial.static_bound
    assert parallel.failure_probability_interval() == (
        serial.failure_probability_interval()
    )
    assert masked_records(parallel) == masked_records(serial)
    assert (parallel.cache_hits, parallel.cache_misses) == (
        serial.cache_hits,
        serial.cache_misses,
    )
    assert parallel.health == serial.health
    assert parallel.mcs_truncated == serial.mcs_truncated
    assert parallel.mcs_remainder_bound == serial.mcs_remainder_bound
    # Dedup statistics derive from the shared cache — identical too.
    assert parallel.perf.dynamic_solves == serial.perf.dynamic_solves
    assert parallel.perf.unique_models_solved == serial.perf.unique_models_solved
    assert parallel.perf.dedup_ratio == serial.perf.dedup_ratio


def run_pair(sdft, jobs, **options):
    serial = analyze(sdft, AnalysisOptions(jobs=1, **options))
    parallel = analyze(sdft, AnalysisOptions(jobs=jobs, **options))
    return serial, parallel


def dynamized_synthetic():
    """A dynamized synthetic PSA study (the Section VI-B construction)."""
    tree = model_1(scale=0.5)
    cutsets = mocus(tree, MocusOptions(cutoff=1e-10)).cutsets
    plan = plan_dynamization(cutsets, 0.3, 0.5)
    return dynamize(tree, plan, 24.0)


class TestDeterminism:
    def test_cooling_jobs2_matches_serial(self, cooling_sdft):
        serial, parallel = run_pair(cooling_sdft, jobs=2)
        assert_identical(serial, parallel)
        assert parallel.perf.jobs == 2
        assert serial.perf.jobs == 1

    def test_bwr_jobs4_matches_serial(self):
        sdft = build_bwr(BwrConfig(repair_rate=0.05, triggers=TRIGGER_STAGES))
        serial, parallel = run_pair(sdft, jobs=4, cutoff=1e-10)
        assert_identical(serial, parallel)
        assert parallel.perf.dynamic_solves > 0
        assert parallel.perf.dedup_ratio > 0.0  # BWR shapes repeat massively

    def test_synthetic_jobs4_matches_serial(self):
        sdft = dynamized_synthetic()
        serial, parallel = run_pair(sdft, jobs=4, cutoff=1e-10)
        assert_identical(serial, parallel)
        assert parallel.perf.dynamic_solves > 0


class TestWorkerFaultDeterminism:
    def test_injected_worker_fault_degrades_identically(self, cooling_sdft):
        """A solver fault tripping *inside a worker* must leave the exact
        same records and health trail as the same fault in the serial
        loop: the parent re-runs the affected cutsets through the
        degradation ladder."""
        doomed = frozenset({"b", "d"})

        def run(jobs):
            with faults.inject(
                "transient_solve",
                NumericalError("injected solver failure"),
                when=lambda cutset: cutset == doomed,
            ):
                return analyze(
                    cooling_sdft,
                    AnalysisOptions(jobs=jobs, fault_isolation=True),
                )

        serial = run(1)
        parallel = run(2)
        assert_identical(serial, parallel)
        # The fault really tripped, and really tripped in a worker.
        assert not serial.health.is_clean
        assert serial.perf.worker_faults == 0
        assert parallel.perf.worker_faults >= 1
        (record,) = [r for r in parallel.records if r.cutset == doomed]
        assert record.rung in ("bound", "skipped")

    def test_state_budget_exhaustion_matches_serial(self, cooling_sdft):
        """The state budget is charged in deterministic cutset order by
        both strategies, so even partial (budget-cut) results agree."""
        options = dict(max_total_states=5, fault_isolation=True)
        serial, parallel = run_pair(cooling_sdft, jobs=2, **options)
        assert_identical(serial, parallel)
        assert not serial.health.is_clean  # the budget really did bite
        assert serial.is_degraded and parallel.is_degraded
