"""A records-layer hit passes the same per-record guards as fresh work.

The records layer serves a clean run's whole record set to a later run
of the same problem.  A payload that is well-formed but rotted — one
record's value corrupted, the stored total made consistent with it —
must not be served as a clean answer under ``verify="cheap"``: the
restored records go through the fold's per-record invariants (P1 finite,
P4 worst-case dominance) exactly like checkpoint or session records.
"""

import json
import math
import os
import sqlite3

import pytest

from repro.core.analyzer import AnalysisOptions, analyze
from repro.errors import InvariantViolation


def rot_records_payload(cache_dir, corrupt):
    """Rewrite the one stored record set: ``corrupt`` maps the top
    record's probability to its new value; the total follows."""
    connection = sqlite3.connect(os.path.join(cache_dir, "solve-cache.sqlite"))
    try:
        ((key, raw),) = connection.execute(
            "SELECT key, payload FROM entries WHERE kind = 'records'"
        ).fetchall()
        payload = json.loads(raw)
        top = max(payload["records"], key=lambda record: record["probability"])
        top["probability"] = corrupt(top["probability"])
        payload["total"] = sum(
            record["probability"]
            for record in payload["records"]
            if record["probability"] > 0.0
        )
        connection.execute(
            "UPDATE entries SET payload = ? WHERE key = ?",
            (json.dumps(payload), key),
        )
        connection.commit()
    finally:
        connection.close()


def restored(result):
    return any("full-result hit" in e.message for e in result.health.events)


CORRUPTIONS = {
    "nan": lambda probability: float("nan"),
    "inflated": lambda probability: 50.0 * probability,
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_rotted_record_raises_under_verify(cooling_sdft, tmp_path, corruption):
    opts = AnalysisOptions(cache_dir=str(tmp_path / "cache"), verify="cheap")
    analyze(cooling_sdft, opts)
    rot_records_payload(opts.cache_dir, CORRUPTIONS[corruption])
    with pytest.raises(InvariantViolation):
        analyze(cooling_sdft, opts)


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_rotted_record_degrades_under_isolation(
    cooling_sdft, tmp_path, corruption
):
    opts = AnalysisOptions(
        cache_dir=str(tmp_path / "cache"), verify="cheap", fault_isolation=True
    )
    clean = analyze(cooling_sdft, opts)
    rot_records_payload(opts.cache_dir, CORRUPTIONS[corruption])
    result = analyze(cooling_sdft, opts)
    assert restored(result)
    assert result.is_degraded
    assert result.n_degraded_cutsets == 1
    assert any(
        e.stage == "verify" and "invariant violation" in e.message
        for e in result.health.events
    )
    assert not any(math.isnan(r.probability) for r in result.records)
    lower, upper = result.failure_probability_interval()
    assert lower <= clean.failure_probability <= upper
    assert upper < 5.0 * clean.failure_probability


def test_clean_payload_is_served_unchanged_under_verify(cooling_sdft, tmp_path):
    opts = AnalysisOptions(cache_dir=str(tmp_path / "cache"), verify="cheap")
    cold = analyze(cooling_sdft, opts)
    warm = analyze(cooling_sdft, opts)
    assert restored(warm)
    assert warm.health.is_clean
    assert warm.failure_probability == cold.failure_probability
    assert warm.records == cold.records
