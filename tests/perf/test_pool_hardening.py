"""Farm hardening: worker death and watchdog timeouts on the one dispatch path.

Whatever breaks the pool, every task yields exactly one result, the
farm records one ``rebuild`` event, and the tasks it lost come back as
failures for the analyzer to re-solve in-process.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.core.analyzer import AnalysisOptions, analyze
from repro.perf.pool import FarmEvent, SolverFarm
from repro.robust import faults
from tests.perf.test_parallel_analyzer import masked_records
from tests.perf.test_pool import make_task


def _kill_once(latch_path):
    """SIGKILL the calling worker the first time any task reaches it.

    The latch file provides cross-process once-semantics: every forked
    worker inherits its own copy of the armed fault, so an in-memory
    flag could not stop the second worker from also dying.
    """

    def predicate(**_context):
        try:
            open(latch_path, "x").close()
        except FileExistsError:
            return False
        os.kill(os.getpid(), signal.SIGKILL)
        return False  # unreachable

    return predicate


def _kill_always(target):
    """SIGKILL every worker that reaches the ``target`` cutset."""

    def predicate(cutset=None, **_context):
        if cutset == target:
            os.kill(os.getpid(), signal.SIGKILL)
        return False

    return predicate


def _hang_in_worker(parent_pid, latch_path, seconds=5.0):
    """Stall one worker past the watchdog deadline; never the parent."""

    def predicate(**_context):
        if os.getpid() == parent_pid:
            return False
        try:
            open(latch_path, "x").close()
        except FileExistsError:
            return False
        time.sleep(seconds)
        return False

    return predicate


@pytest.fixture
def three_tasks(cooling_sdft):
    cutsets = [
        frozenset({"a", "d"}),
        frozenset({"b", "c"}),
        frozenset({"b", "d"}),
    ]
    models, tasks = [], []
    for i, cutset in enumerate(cutsets):
        model, task = make_task(cooling_sdft, cutset, task_id=i)
        models.append(model)
        tasks.append(task)
    return models, tasks


@pytest.fixture
def farm():
    farm = SolverFarm(jobs=2)
    yield farm
    farm.close()


def _by_id(results):
    results = list(results)
    by_id = {r.task_id: r for r in results}
    assert len(by_id) == len(results), "one result per task"
    return by_id


class TestWorkerDeath:
    def test_sigkilled_worker_is_survived(self, three_tasks, tmp_path, farm):
        """A worker dying mid-task breaks the pool: every task still gets
        one result, the lost ones as crashes, and the farm recovers."""
        _, tasks = three_tasks
        with faults.inject(
            "worker_kill", when=_kill_once(str(tmp_path / "kill.latch"))
        ):
            results = _by_id(farm.run_batched(tasks))
        assert sorted(results) == [0, 1, 2]
        lost = [r for r in results.values() if not r.ok]
        assert lost, "the killed worker's task cannot have a value"
        assert all(r.error_kind == "crash" for r in lost)
        assert [e.kind for e in farm.events] == ["rebuild"]
        # The next run on the same farm gets a fresh pool and is clean.
        again = _by_id(farm.run_batched(tasks))
        assert all(r.ok for r in again.values())
        assert farm.events == []

    def test_repeat_killer_fails_its_task(self, three_tasks, farm):
        """A task that kills every worker it reaches ends dispatch once
        and comes back failed; nothing is requeued onto a new pool."""
        _, tasks = three_tasks
        with faults.inject(
            "worker_kill", when=_kill_always(frozenset({"b", "d"}))
        ):
            results = _by_id(farm.run_batched(tasks))
        assert sorted(results) == [0, 1, 2]
        assert results[2].error_kind == "crash"
        assert [e.kind for e in farm.events] == ["rebuild"]


class TestWatchdog:
    def test_hung_task_times_out(self, three_tasks, tmp_path):
        """A stalled worker is reaped by the wall deadline: its task comes
        back as the one timeout result, and the event names its cutset."""
        _, tasks = three_tasks
        farm = SolverFarm(jobs=2, task_timeout=0.5)
        try:
            with faults.inject(
                "transient_solve",
                when=_hang_in_worker(os.getpid(), str(tmp_path / "hang.latch")),
            ):
                results = _by_id(farm.run_batched(tasks))
        finally:
            farm.close()
        assert sorted(results) == [0, 1, 2]
        timed_out = [r for r in results.values() if r.error_kind == "timeout"]
        assert len(timed_out) == 1
        assert all(
            r.ok or r.error_kind == "crash"
            for r in results.values()
            if r is not timed_out[0]
        )
        (timeout,) = [e for e in farm.events if e.kind == "timeout"]
        assert timeout.task_id == timed_out[0].task_id
        assert timeout.cutset == tasks[timeout.task_id].cutset
        assert sorted(e.kind for e in farm.events) == ["rebuild", "timeout"]

    def test_no_timeout_without_deadline(self, three_tasks, farm):
        _, tasks = three_tasks
        results = list(farm.run_batched(tasks))
        assert all(r.ok for r in results)
        assert farm.events == []


def _assert_serial_answer(baseline, survived):
    """The jobs=1 answer, with the pool recovery loud in the health report."""
    assert survived.failure_probability == baseline.failure_probability
    assert masked_records(survived) == masked_records(baseline)
    assert any(
        e.stage == "pool" and e.kind == "warning" for e in survived.health.events
    )


class TestAnalyzerIntegration:
    def test_analysis_survives_a_killed_worker(self, cooling_sdft, tmp_path):
        """End to end: jobs=2 with a one-shot worker kill still produces
        the serial answer, and the health report records the recovery."""
        baseline = analyze(cooling_sdft, AnalysisOptions(horizon=24.0))
        with faults.inject(
            "worker_kill", when=_kill_once(str(tmp_path / "kill.latch"))
        ):
            survived = analyze(
                cooling_sdft, AnalysisOptions(horizon=24.0, jobs=2)
            )
        _assert_serial_answer(baseline, survived)

    def test_analysis_survives_a_repeat_killer(self, cooling_sdft):
        """The killer's signature is answered in the parent, which never
        reaches the worker-only ``worker_kill`` stage."""
        baseline = analyze(cooling_sdft, AnalysisOptions(horizon=24.0))
        with faults.inject(
            "worker_kill", when=_kill_always(frozenset({"b", "d"}))
        ):
            survived = analyze(
                cooling_sdft, AnalysisOptions(horizon=24.0, jobs=2)
            )
        _assert_serial_answer(baseline, survived)

    def test_analysis_survives_a_hung_task(self, cooling_sdft, tmp_path):
        """The watchdog reaps the hang; the parent re-solves the victim
        in-process, so the final answer is still the serial one."""
        baseline = analyze(cooling_sdft, AnalysisOptions(horizon=24.0))
        with faults.inject(
            "transient_solve",
            when=_hang_in_worker(os.getpid(), str(tmp_path / "hang.latch")),
        ):
            survived = analyze(
                cooling_sdft,
                AnalysisOptions(
                    horizon=24.0,
                    jobs=2,
                    pool_task_timeout_seconds=0.5,
                    collect_metrics=True,
                ),
            )
        _assert_serial_answer(baseline, survived)
        assert any(
            "deadline" in e.message for e in survived.health.events
        )
        counters = survived.metrics["counters"]
        assert counters["pool.timeouts"] == 1
        assert counters["pool.rebuilds"] == 1


class TestFarmEvent:
    def test_is_plain_frozen_data(self):
        event = FarmEvent(kind="rebuild", message="pool rebuilt")
        assert event.task_id is None and event.cutset is None
        with pytest.raises(AttributeError):
            event.kind = "other"
