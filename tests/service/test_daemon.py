"""ServiceDaemon: the request layer, journal recovery, load shedding."""

from __future__ import annotations

import io
import json

import pytest

from repro.core.analyzer import AnalysisOptions, analyze
from repro.models.formats import sdft_to_dict
from repro.service.breaker import CircuitBreaker
from repro.service.daemon import ServiceDaemon
from repro.service.edits import SetProbability, apply_edits
from repro.service.journal import Journal


@pytest.fixture
def payload(cooling_sdft):
    return sdft_to_dict(cooling_sdft)


@pytest.fixture
def daemon(options):
    return ServiceDaemon(options)


def _load(daemon, payload):
    response = daemon.handle_request({"op": "load", "model": payload})
    assert response["ok"]
    return response["session"]


# ----------------------------------------------------------------------
# Synchronous request handling
# ----------------------------------------------------------------------


def test_ping_and_unknown_op(daemon):
    assert daemon.handle_request({"op": "ping"})["ok"]
    response = daemon.handle_request({"op": "frobnicate"})
    assert not response["ok"]
    assert response["error"]["kind"] == "service-error"


def test_load_is_fingerprint_addressed(daemon, payload):
    first = _load(daemon, payload)
    second = _load(daemon, payload)
    assert first == second  # same content converges on one session
    assert len(daemon.store) == 1


def test_static_model_rejected(daemon, cooling_tree):
    from repro.models.formats import tree_to_dict

    response = daemon.handle_request(
        {"op": "load", "model": tree_to_dict(cooling_tree)}
    )
    assert not response["ok"]
    assert "SD fault trees" in response["error"]["message"]


def test_analysis_response_shape(daemon, payload, cooling_sdft, options):
    session = _load(daemon, payload)
    response = daemon.handle_request({"op": "analyze", "session": session})
    reference = analyze(cooling_sdft, options)
    assert response["ok"]
    assert response["probability"] == reference.failure_probability
    assert response["method"] == reference.method
    lower, upper = response["interval"]
    assert lower <= response["probability"] <= upper
    assert response["mode"] == "full"
    assert not response["deadline_expired"]


def test_edit_then_reanalyze_matches_cold(
    daemon, payload, cooling_sdft, options
):
    session = _load(daemon, payload)
    daemon.handle_request({"op": "analyze", "session": session})
    edited = daemon.handle_request(
        {
            "op": "edit",
            "session": session,
            "edits": [
                {"kind": "set-probability", "event": "e", "probability": 5e-6}
            ],
        }
    )
    assert edited["ok"] and edited["changed"]
    response = daemon.handle_request(
        {"op": "reanalyze", "session": session, "crosscheck": True}
    )
    assert response["ok"]
    cold = analyze(
        apply_edits(cooling_sdft, [SetProbability("e", 5e-6)]), options
    )
    assert response["probability"] == cold.failure_probability


def test_unknown_session_is_an_error_response(daemon):
    response = daemon.handle_request({"op": "analyze", "session": "nope"})
    assert not response["ok"]
    assert "unknown session" in response["error"]["message"]


def test_deadline_expiry_returns_partial_not_error(daemon, payload):
    session = _load(daemon, payload)
    response = daemon.handle_request(
        {"op": "analyze", "session": session, "deadline_seconds": 1e-9}
    )
    assert response["ok"]
    assert response["deadline_expired"]
    assert "method" in response and "interval" in response
    assert daemon.counters["deadline_partials"] == 1


@pytest.mark.parametrize("deadline", [-1, float("nan"), float("inf"), "soon"])
def test_invalid_deadline_is_a_client_error(daemon, payload, deadline):
    session = _load(daemon, payload)
    response = daemon.handle_request(
        {"op": "analyze", "session": session, "deadline_seconds": deadline}
    )
    assert not response["ok"]
    assert response["error"]["kind"] == "service-error"
    assert "deadline_seconds" in response["error"]["message"]


def test_zero_deadline_serves_a_float_probability(daemon, payload):
    session = _load(daemon, payload)
    response = daemon.handle_request(
        {"op": "analyze", "session": session, "deadline_seconds": 0}
    )
    assert response["ok"] and response["deadline_expired"]
    assert isinstance(response["probability"], float)
    assert json.dumps(response["probability"]) == "0.0"


def test_open_breaker_forces_serial_with_note(options, payload):
    breaker = CircuitBreaker(failure_threshold=1, cooldown_requests=3)
    daemon = ServiceDaemon(options, breaker=breaker)
    session = _load(daemon, payload)
    breaker.record_failure()
    response = daemon.handle_request({"op": "analyze", "session": session})
    assert response["ok"]
    assert any("circuit breaker open" in note for note in response["notes"])
    assert response["breaker"] in ("open", "half-open")


def test_stats_response(daemon, payload):
    session = _load(daemon, payload)
    daemon.handle_request({"op": "analyze", "session": session})
    stats = daemon.handle_request({"op": "stats"})
    assert stats["ok"]
    assert stats["counters"]["served"] >= 2
    assert stats["sessions"][session]["runs"] == 1
    assert stats["breaker"]["state"] == "closed"


def test_request_trace_is_written(options, payload, tmp_path):
    trace = tmp_path / "trace.jsonl"
    daemon = ServiceDaemon(options, trace_path=str(trace))
    session = _load(daemon, payload)
    daemon.handle_request({"op": "analyze", "session": session, "id": 7})
    entries = [
        json.loads(line) for line in trace.read_text().splitlines()
    ]
    assert [e["op"] for e in entries] == ["load", "analyze"]
    assert entries[1]["id"] == 7
    assert entries[1]["ok"]
    assert entries[1]["probability"] is not None


# ----------------------------------------------------------------------
# Journal recovery
# ----------------------------------------------------------------------


def test_restart_replays_loads_and_edits(options, payload, tmp_path):
    journal = str(tmp_path / "daemon.journal")
    first = ServiceDaemon(options, journal_path=journal)
    session = _load(first, payload)
    first.handle_request(
        {
            "op": "edit",
            "session": session,
            "edits": [
                {"kind": "set-probability", "event": "e", "probability": 5e-6}
            ],
        }
    )
    fingerprint = first.store.get(session).fingerprint
    first.journal.close()

    second = ServiceDaemon(options, journal_path=journal)
    assert second.counters["replayed"] == 2
    assert second.store.get(session).fingerprint == fingerprint


def test_restart_aborts_in_flight_work(options, payload, tmp_path):
    journal_path = str(tmp_path / "daemon.journal")
    first = ServiceDaemon(options, journal_path=journal_path)
    session = _load(first, payload)
    first.journal.close()
    # Simulate a crash mid-request: a 'begin' with no 'done'.
    orphan = Journal(journal_path)
    orphan.begin(99, {"op": "reanalyze", "session": session})
    orphan.close()

    second = ServiceDaemon(options, journal_path=journal_path)
    assert second.counters["aborted_in_flight"] == 1
    assert any("in flight" in note for note in second.recovery_notes)
    # Sequence numbering continues past the aborted record.
    assert second.journal.next_seq() == 100


def test_failed_requests_are_not_journalled_done(options, tmp_path):
    journal_path = str(tmp_path / "daemon.journal")
    daemon = ServiceDaemon(options, journal_path=journal_path)
    response = daemon.handle_request({"op": "load"})  # missing payload
    assert not response["ok"]
    daemon.journal.close()
    second = ServiceDaemon(options, journal_path=journal_path)
    # The failed load is in-flight (begin, no done) — aborted, not replayed.
    assert second.counters["replayed"] == 0
    assert second.counters["aborted_in_flight"] == 1


# ----------------------------------------------------------------------
# The serve loop
# ----------------------------------------------------------------------


def _serve(daemon, requests):
    stdin = io.StringIO(
        "".join(json.dumps(r) + "\n" for r in requests)
    )
    stdout = io.StringIO()
    daemon.serve(stdin, stdout)
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


def test_serve_round_trip(options, payload):
    daemon = ServiceDaemon(options)
    responses = _serve(
        daemon,
        [
            {"id": 1, "op": "ping"},
            {"id": 2, "op": "load", "model": payload},
            {"id": 3, "op": "shutdown"},
        ],
    )
    by_id = {r["id"]: r for r in responses}
    assert by_id[1]["ok"] and by_id[2]["ok"] and by_id[3]["ok"]
    assert by_id[2]["session"]


def test_serve_sheds_excess_load(options, payload):
    daemon = ServiceDaemon(options, max_queue=1, workers=1)
    with_session = ServiceDaemon(options)
    session = _load(with_session, payload)
    _load(daemon, payload)  # install the session synchronously
    analyze_req = {"op": "analyze", "session": session}
    responses = _serve(
        daemon,
        [dict(analyze_req, id=i) for i in range(8)],
    )
    outcomes = {r["id"]: r for r in responses}
    shed = [
        r
        for r in outcomes.values()
        if not r["ok"] and r["error"]["kind"] == "load-shed"
    ]
    served = [r for r in outcomes.values() if r.get("ok")]
    # The worker drains at most a few while stdin floods 8 instantly:
    # at least one is shed, every shed response is explicit, and
    # everything else is served correctly.
    assert shed, "expected the bounded queue to shed load"
    assert len(shed) + len(served) == 8
    assert daemon.counters["shed"] == len(shed)


def test_serve_answers_ping_under_load(options, payload):
    daemon = ServiceDaemon(options, max_queue=1, workers=1)
    _load(daemon, payload)
    session = next(iter(daemon.store.ids()))
    requests = [dict({"op": "analyze", "session": session}, id=i) for i in range(6)]
    requests.insert(4, {"op": "ping", "id": 99})
    responses = _serve(daemon, requests)
    ping = [r for r in responses if r.get("id") == 99]
    assert ping and ping[0]["ok"]


def test_serve_rejects_garbage_lines(options):
    daemon = ServiceDaemon(options)
    stdin = io.StringIO('this is not json\n[1,2,3]\n{"op":"shutdown"}\n')
    stdout = io.StringIO()
    daemon.serve(stdin, stdout)
    responses = [json.loads(l) for l in stdout.getvalue().splitlines()]
    assert [r["ok"] for r in responses] == [False, False, True]
    assert all(
        r["error"]["kind"] == "bad-request" for r in responses if not r["ok"]
    )
