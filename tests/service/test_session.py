"""AnalysisSession lifecycle: analyze / edit / reanalyze / resume."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.analyzer import AnalysisOptions, analyze, reusable_records
from repro.errors import CrosscheckError, InjectedFaultError, ServiceError
from repro.robust import faults
from repro.service.edits import (
    ScaleRates,
    SetGate,
    SetProbability,
    apply_edits,
)
from repro.service.session import (
    AnalysisSession,
    assert_bit_identical,
    session_for,
)


def test_cold_session_matches_one_shot(cooling_sdft, options):
    session = session_for(cooling_sdft, options)
    result = session.analyze()
    reference = analyze(cooling_sdft, options)
    assert_bit_identical(result, reference)
    assert session.runs == 1
    assert session.last_mode == "full"


def test_edit_reports_fingerprint_motion(cooling_sdft, options):
    session = AnalysisSession(cooling_sdft, options)
    before = session.fingerprint
    report = session.edit(SetProbability("e", 5e-6))
    assert report.changed
    assert report.fingerprint_before == before
    assert report.fingerprint_after == session.fingerprint != before
    with pytest.raises(ServiceError, match="no edits"):
        session.edit()


@pytest.mark.parametrize(
    "edit",
    [
        SetProbability("e", 5e-6),
        SetProbability("a", 9e-3),
        ScaleRates("b", 0.5),
        ScaleRates("d", 2.0),
    ],
)
def test_reanalyze_is_bit_identical_to_cold(cooling_sdft, options, edit):
    session = AnalysisSession(cooling_sdft, options)
    session.analyze()
    session.edit(edit)
    # crosscheck=True runs the cold analysis internally and raises
    # CrosscheckError on any semantic difference.
    warm = session.reanalyze(crosscheck=True)
    cold = analyze(apply_edits(cooling_sdft, [edit]), options)
    assert_bit_identical(warm, cold)


def test_record_reuse_skips_clean_cutsets(cooling_sdft, options):
    session = AnalysisSession(cooling_sdft, options)
    base = session.analyze()
    session.edit(SetProbability("e", 5e-6))
    reusable = reusable_records(session.model, cooling_sdft, base.records)
    # {e} is dirty; every other cooling cutset is provably untouched.
    assert reusable
    assert frozenset({"e"}) not in reusable
    assert frozenset({"a", "c"}) in reusable
    assert all("e" not in r.dependencies for r in reusable.values())


def test_structural_edit_disables_record_reuse(cooling_sdft, options):
    session = AnalysisSession(cooling_sdft, options)
    base = session.analyze()
    session.edit(SetGate("pumps", "or", ("pump1", "pump2")))
    assert reusable_records(session.model, cooling_sdft, base.records) == {}
    # ... but the run itself still agrees with cold analysis.
    session.reanalyze(crosscheck=True)


def test_deadline_returns_sound_bracket(cooling_sdft, options):
    clean = analyze(cooling_sdft, options)
    session = AnalysisSession(cooling_sdft, options)
    result = session.analyze(deadline_seconds=1e-9)
    lower, upper = result.failure_probability_interval()
    assert lower <= clean.failure_probability <= upper
    assert any(e.kind == "budget" for e in result.health.events)
    # The session's own options are untouched by the per-request budget.
    assert session.options.wall_seconds is None


def test_crosscheck_raises_on_semantic_difference(cooling_sdft, options):
    session = AnalysisSession(cooling_sdft, options)
    good = session.analyze()
    bad = replace(good, failure_probability=good.failure_probability * 2)
    with pytest.raises(CrosscheckError, match="probability"):
        assert_bit_identical(bad, good)


def test_resume_needs_checkpoint_config(cooling_sdft, options):
    session = AnalysisSession(cooling_sdft, options)
    with pytest.raises(ServiceError, match="checkpoint_path"):
        session.resume()


def test_interrupted_session_resumes(cooling_sdft, options, tmp_path):
    clean = analyze(cooling_sdft, options)
    session = AnalysisSession(
        cooling_sdft,
        replace(
            options,
            checkpoint_path=str(tmp_path / "run.ckpt"),
            checkpoint_interval_seconds=0.0,
        ),
    )
    target = frozenset({"b", "c"})
    with faults.inject(
        "transient_solve", when=lambda cutset=None, **_: cutset == target
    ):
        with pytest.raises(InjectedFaultError):
            session.analyze()
    resumed = session.resume()
    assert resumed.failure_probability == pytest.approx(
        clean.failure_probability, rel=1e-12
    )
    assert session.last_mode == "resume"


def test_stats_shape(cooling_sdft, options):
    session = AnalysisSession(cooling_sdft, options)
    session.analyze()
    stats = session.stats()
    assert stats["runs"] == 1
    assert stats["last_mode"] == "full"
    assert stats["fingerprint"] == session.fingerprint
    session.close()
    assert session._previous is None
