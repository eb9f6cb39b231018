"""Speedup floors of the warm paths, with bit-identity.

Each reuse path must clear a floor against a cold ``analyze()`` and
serve exactly the cold answer:

* **warm-full** (5x) — a rerun against the persistent cache restores
  the whole record set from the records layer (also asserted on a
  dynamized synthetic model);
* **retruncate** (5x) — a session re-analysis after an edit that only
  lowers probabilities re-truncates the previous cutset family instead
  of searching again;
* **modular** (2x) — a session re-analysis after an edit that raises a
  rate recomposes the session's module families instead of searching
  the whole tree.

The warm side is timed as the best of three runs so that one scheduler
hiccup cannot fail the floor.  The session cases make three successive
edits, each checked against a cold analysis of the edited model, and
compare the best warm time with the best cold time.
"""

import os
import sqlite3
import time
from contextlib import closing

import pytest

from repro.core.analyzer import AnalysisOptions, analyze
from repro.ft.mocus import MocusOptions, mocus
from repro.models.bwr import build_bwr
from repro.models.enrich import dynamize, plan_dynamization
from repro.models.synthetic import model_1
from repro.service.edits import ScaleRates, SetProbability
from repro.service.session import AnalysisSession, assert_bit_identical

#: Minimum warm-over-cold end-to-end speedup of both reuse paths.
MIN_SPEEDUP = 5.0

#: Minimum speedup of a raising edit served by the modular path.
MIN_RAISE_SPEEDUP = 2.0


def timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def restored(result):
    return any("full-result hit" in e.message for e in result.health.events)


@pytest.fixture(params=["bwr", "synthetic-1-dynamized"])
def warm_case(request, bwr_study):
    """``(model, cutoff)`` of each warm-full case."""
    if request.param == "bwr":
        return bwr_study, 1e-15
    tree = model_1(0.6)
    cutsets = mocus(tree, MocusOptions(cutoff=1e-10)).cutsets
    return dynamize(tree, plan_dynamization(cutsets, 0.3, 0.5), 24.0), 1e-10


def test_warm_full_rerun_clears_the_floor(warm_case, tmp_path):
    sdft, cutoff = warm_case
    cache_dir = str(tmp_path / "cache")
    opts = AnalysisOptions(horizon=24.0, cutoff=cutoff, cache_dir=cache_dir)
    cold, cold_seconds = timed(lambda: analyze(sdft, opts))
    assert not restored(cold)

    warm_seconds = []
    for _ in range(3):
        warm, seconds = timed(lambda: analyze(sdft, opts))
        warm_seconds.append(seconds)
        assert restored(warm)
        assert_bit_identical(warm, cold)
    assert cold_seconds / min(warm_seconds) >= MIN_SPEEDUP, (
        f"warm-full {min(warm_seconds):.3f}s vs cold {cold_seconds:.3f}s"
    )

    # Warm-solve: with the records layer gone the pipeline runs again,
    # served by the MOCUS and solve layers, under another jobs value.
    path = os.path.join(cache_dir, "solve-cache.sqlite")
    with closing(sqlite3.connect(path)) as db, db:
        db.execute("DELETE FROM entries WHERE kind = 'records'")
    rerun = analyze(
        sdft,
        AnalysisOptions(
            horizon=24.0,
            cutoff=cutoff,
            cache_dir=cache_dir,
            jobs=2,
            collect_metrics=True,
        ),
    )
    counters = rerun.metrics["counters"]
    assert "cache.records_hits" not in counters
    assert counters["cache.mocus_hits"] == 1
    assert counters["cache.solve_hits"] > 0
    assert "cache.solve_misses" not in counters
    assert_bit_identical(rerun, cold)


def lower_rate(model):
    return ScaleRates("ECC-A-PUMP-FTR", 0.5)


def lower_probability(model):
    breaker = model.static_events["ECC-A-BREAKER"].probability
    return SetProbability("ECC-A-BREAKER", breaker / 2)


@pytest.mark.parametrize(
    "lowering_edit",
    [lower_rate, lower_probability],
    ids=["rate-decrease", "probability-decrease"],
)
def test_retruncate_clears_the_floor(lowering_edit):
    opts = AnalysisOptions(horizon=24.0, cutoff=1e-15)
    session = AnalysisSession(build_bwr(), opts)
    session.analyze()
    warm_seconds, cold_seconds = [], []
    for _ in range(3):
        session.edit(lowering_edit(session.model))
        warm, seconds = timed(session.reanalyze)
        warm_seconds.append(seconds)
        assert session.last_mode == "retruncate"
        cold, seconds = timed(lambda: analyze(session.model, opts))
        cold_seconds.append(seconds)
        assert_bit_identical(warm, cold)
    speedup = min(cold_seconds) / min(warm_seconds)
    assert speedup >= MIN_SPEEDUP, (
        f"retruncate {min(warm_seconds):.3f}s vs cold "
        f"{min(cold_seconds):.3f}s ({speedup:.1f}x)"
    )


def test_raising_edit_is_bit_identical():
    """A raised rate may admit new cutsets, so retruncation must refuse.

    The ``modular`` path serves it instead: module families come from
    the BDD once per session and are recomposed under the new
    probabilities.  Three successive raising edits, each checked against
    a cold analysis, must clear ``MIN_RAISE_SPEEDUP`` (measured 3.5-8x
    on the BWR study).
    """
    opts = AnalysisOptions(horizon=24.0, cutoff=1e-15)
    session = AnalysisSession(build_bwr(), opts)
    session.analyze()
    warm_seconds, cold_seconds = [], []
    for event in ("ECC-A-PUMP-FTR", "EFW-B-PUMP-FTR", "ECC-A-PUMP-FTR"):
        session.edit(ScaleRates(event, 2.0))
        warm, seconds = timed(session.reanalyze)
        warm_seconds.append(seconds)
        assert session.last_mode == "modular"
        cold, seconds = timed(lambda: analyze(session.model, opts))
        cold_seconds.append(seconds)
        assert_bit_identical(warm, cold)
    speedup = min(cold_seconds) / min(warm_seconds)
    assert speedup >= MIN_RAISE_SPEEDUP, (
        f"modular {min(warm_seconds):.3f}s vs cold "
        f"{min(cold_seconds):.3f}s ({speedup:.1f}x)"
    )
