"""Checkpoint/resume: manager unit tests and the kill/resume round trip."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.analyzer import AnalysisOptions, analyze
from repro.core.quantify import McsQuantification, quantify_cutset
from repro.errors import CheckpointError, InjectedFaultError
from repro.robust import faults
from repro.robust.checkpoint import (
    CheckpointManager,
    model_fingerprint,
    record_from_dict,
    record_to_dict,
)

HORIZON = 24.0


# ----------------------------------------------------------------------
# Record serialisation
# ----------------------------------------------------------------------


def test_record_round_trip(cooling_sdft):
    record = quantify_cutset(cooling_sdft, frozenset({"b", "d"}), HORIZON)
    data = record_to_dict(record)
    json.dumps(data)  # must be JSON-serialisable as-is
    assert record_from_dict(data) == record


def test_record_dict_equals_asdict_form():
    record = McsQuantification(
        cutset=frozenset({"z", "a", "m"}),
        probability=1.5e-7,
        is_dynamic=True,
        n_dynamic_in_cutset=2,
        n_dynamic_in_model=3,
        n_added_dynamic=1,
        chain_states=17,
        solve_seconds=0.25,
        cache_hit=True,
        trivially_zero=True,
        bounded=True,
        lower_bound=1.0e-7,
        rung="lumped",
        dependencies=("a", "m", "q", "z"),
    )
    expected = dataclasses.asdict(record)
    expected["cutset"] = ["a", "m", "z"]
    data = record_to_dict(record)
    assert data == expected
    assert list(data) == list(expected)
    assert isinstance(data["dependencies"], tuple)
    assert record_from_dict(json.loads(json.dumps(data))) == record


# ----------------------------------------------------------------------
# Manager behaviour
# ----------------------------------------------------------------------


def test_save_and_load_round_trip(tmp_path):
    manager = CheckpointManager(tmp_path / "run.ckpt", "fp")
    assert manager.load() is None
    manager.save("quantify", {"records": []})
    payload = manager.load()
    assert payload["phase"] == "quantify"
    assert payload["state"] == {"records": []}
    assert not (tmp_path / "run.ckpt.tmp").exists()


def test_load_rejects_other_fingerprints(tmp_path):
    CheckpointManager(tmp_path / "run.ckpt", "fp-a").save("mocus", {})
    with pytest.raises(CheckpointError, match="different"):
        CheckpointManager(tmp_path / "run.ckpt", "fp-b").load()


def test_load_rejects_other_format_versions(tmp_path):
    path = tmp_path / "run.ckpt"
    CheckpointManager(path, "fp").save("mocus", {})
    data = json.loads(path.read_text())
    data["version"] = 999
    path.write_text(json.dumps(data))
    with pytest.raises(CheckpointError, match="version"):
        CheckpointManager(path, "fp").load()


def test_load_rejects_corrupt_files(tmp_path):
    path = tmp_path / "run.ckpt"
    path.write_text("{not json")
    with pytest.raises(CheckpointError, match="cannot read"):
        CheckpointManager(path, "fp").load()


def test_maybe_save_is_throttled(tmp_path, fake_clock):
    manager = CheckpointManager(
        tmp_path / "run.ckpt", "fp", interval_seconds=10.0, clock=fake_clock
    )
    assert manager.maybe_save("quantify", lambda: {"n": 1})
    fake_clock.advance(5.0)
    assert not manager.maybe_save("quantify", lambda: {"n": 2})
    fake_clock.advance(5.0)
    assert manager.maybe_save("quantify", lambda: {"n": 3})
    assert manager.saves == 2
    assert manager.load()["state"] == {"n": 3}


def test_clear_is_idempotent(tmp_path):
    manager = CheckpointManager(tmp_path / "run.ckpt", "fp")
    manager.save("mocus", {})
    manager.clear()
    manager.clear()
    assert manager.load() is None


def test_write_failures_are_injectable(tmp_path):
    manager = CheckpointManager(tmp_path / "run.ckpt", "fp")
    with faults.inject("checkpoint"):
        with pytest.raises(InjectedFaultError):
            manager.save("mocus", {})
    assert manager.load() is None


def test_fingerprint_tracks_the_problem(cooling_sdft):
    base = model_fingerprint(cooling_sdft, HORIZON, 1e-15)
    assert base == model_fingerprint(cooling_sdft, HORIZON, 1e-15)
    assert base != model_fingerprint(cooling_sdft, 48.0, 1e-15)
    assert base != model_fingerprint(cooling_sdft, HORIZON, 1e-12)


# ----------------------------------------------------------------------
# The kill/resume round trip (acceptance criterion)
# ----------------------------------------------------------------------


def _checkpointed(tmp_path, **kw):
    return AnalysisOptions(
        horizon=HORIZON,
        checkpoint_path=str(tmp_path / "run.ckpt"),
        checkpoint_interval_seconds=0.0,
        **kw,
    )


def test_killed_run_resumes_and_matches_uninterrupted(cooling_sdft, tmp_path):
    clean = analyze(cooling_sdft, AnalysisOptions(horizon=HORIZON))
    opts = _checkpointed(tmp_path)

    # "Kill" the run mid-quantification: InjectedFaultError is outside
    # the families any recovery layer catches, so it escapes like a
    # crash would.  {b,c} is quantified after {b,d} and {a,d}, so the
    # snapshot already holds finished records when the run dies.
    target = frozenset({"b", "c"})
    with faults.inject(
        "transient_solve", when=lambda cutset=None, **_: cutset == target
    ):
        with pytest.raises(InjectedFaultError):
            analyze(cooling_sdft, opts)
    assert (tmp_path / "run.ckpt").exists()

    resumed = analyze(cooling_sdft, dataclasses.replace(opts, resume=True))
    assert resumed.failure_probability == pytest.approx(
        clean.failure_probability, rel=1e-12
    )
    assert {r.cutset for r in resumed.records} == {r.cutset for r in clean.records}
    assert not resumed.is_degraded  # a resumed clean run is still clean
    assert any("resumed" in e.message for e in resumed.health.events)
    # A finished run removes its snapshot.
    assert not (tmp_path / "run.ckpt").exists()


def test_restored_records_are_not_requantified(cooling_sdft, tmp_path):
    opts = _checkpointed(tmp_path)
    target = frozenset({"b", "c"})
    with faults.inject(
        "transient_solve", when=lambda cutset=None, **_: cutset == target
    ):
        with pytest.raises(InjectedFaultError):
            analyze(cooling_sdft, opts)
    saved = json.loads((tmp_path / "run.ckpt").read_text())
    n_saved = len(saved["state"]["records"])
    assert n_saved >= 1  # the kill must land after some finished work

    # Arm a fault for every cutset already in the snapshot: if the resume
    # re-solved them, it would crash.
    restored_names = {
        frozenset(r["cutset"]) for r in saved["state"]["records"]
    }
    with faults.inject(
        "transient_solve", when=lambda cutset=None, **_: cutset in restored_names
    ) as fault:
        resumed = analyze(cooling_sdft, dataclasses.replace(opts, resume=True))
    assert fault.trips == 0
    assert resumed.n_cutsets >= n_saved


def test_chaos_interrupted_run_resumes_bit_identical(cooling_sdft, tmp_path):
    """Chaos x verify x checkpoint: a silently-corrupted value trips the
    invariant guard (loud abort), and the resumed run — corruption gone —
    reproduces the uninterrupted answer bit for bit."""
    from repro.errors import InvariantViolation

    clean = analyze(
        cooling_sdft, AnalysisOptions(horizon=HORIZON, verify="cheap")
    )
    opts = _checkpointed(tmp_path, verify="cheap")

    target = frozenset({"b", "c"})
    with faults.inject_value(
        "solve_value",
        float("nan"),
        when=lambda cutset=None, **_: cutset == target,
    ):
        with pytest.raises(InvariantViolation):
            analyze(cooling_sdft, opts)
    assert (tmp_path / "run.ckpt").exists()

    resumed = analyze(cooling_sdft, dataclasses.replace(opts, resume=True))
    assert resumed.failure_probability == clean.failure_probability
    def essence(result):
        return sorted(
            (tuple(sorted(r.cutset)), r.probability, r.rung)
            for r in result.records
        )

    assert essence(resumed) == essence(clean)
    assert not (tmp_path / "run.ckpt").exists()


def test_resume_refuses_a_different_problem(cooling_sdft, tmp_path):
    opts = _checkpointed(tmp_path)
    with faults.inject("transient_solve"):
        with pytest.raises(InjectedFaultError):
            analyze(cooling_sdft, opts)
    other = dataclasses.replace(opts, horizon=48.0, resume=True)
    with pytest.raises(CheckpointError):
        analyze(cooling_sdft, other)


def test_resume_without_snapshot_runs_normally(cooling_sdft, tmp_path):
    clean = analyze(cooling_sdft, AnalysisOptions(horizon=HORIZON))
    result = analyze(
        cooling_sdft, _checkpointed(tmp_path, resume=True)
    )
    assert result.failure_probability == pytest.approx(
        clean.failure_probability, rel=1e-12
    )
    assert result.health.is_clean
