"""Batched dispatch: the batch planner, the warm pool, the model table.

The economics under test: many solves per IPC round-trip, one pool fork
per process (not per analysis), zero model pickling on the fork path —
all without changing a single result bit relative to solving each task
on its own.
"""

from dataclasses import dataclass, replace

import pytest

from repro.core.analyzer import AnalysisOptions, analyze
from repro.core.cutset_model import build_cutset_model
from repro.perf import pool as pool_module
from repro.perf.pool import (
    SolveTask,
    SolverFarm,
    fork_available,
    shutdown_warm_farm,
    solve_batch,
    solve_task,
    warm_farm,
)
from repro.perf.schedule import estimate_chain_states, plan_batches


@dataclass(frozen=True)
class Weighted:
    """A minimal schedulable stand-in for a solve task."""

    name: str
    estimated_states: int


def make_tasks(sdft, n_min=6):
    """Distinct dynamic solve tasks (cutsets x horizons), ids 0..n-1."""
    cutsets = [
        frozenset({"b", "d"}),
        frozenset({"a", "d"}),
        frozenset({"b", "c"}),
    ]
    tasks = []
    for horizon in (12.0, 24.0):
        for cutset in cutsets:
            model = build_cutset_model(sdft, cutset)
            assert model.model is not None
            tasks.append(
                SolveTask(
                    task_id=len(tasks),
                    model=model.model,
                    horizon=horizon,
                    epsilon=1e-12,
                    max_chain_states=200_000,
                    cutset=tuple(sorted(cutset)),
                    estimated_states=estimate_chain_states(model.model),
                )
            )
    assert len(tasks) >= n_min
    return tasks


class TestPlanBatches:
    def test_partitions_every_task_exactly_once(self):
        tasks = [Weighted(f"t{i}", 10 * (i + 1)) for i in range(11)]
        batches = plan_batches(tasks, 4)
        flat = [task for batch in batches for task in batch]
        assert sorted(t.name for t in flat) == sorted(t.name for t in tasks)
        assert len(batches) == 4

    def test_never_more_batches_than_tasks(self):
        tasks = [Weighted("a", 1), Weighted("b", 1)]
        assert len(plan_batches(tasks, 8)) == 2
        assert plan_batches([], 4) == []

    def test_deterministic(self):
        tasks = [Weighted(f"t{i}", (i * 37) % 11 + 1) for i in range(20)]
        first = plan_batches(tasks, 5)
        second = plan_batches(list(tasks), 5)
        assert first == second

    def test_balances_load(self):
        # 4 heavy + 8 light over 4 batches: LPT must put one heavy task
        # in each batch, never two.
        tasks = [Weighted(f"h{i}", 1000) for i in range(4)]
        tasks += [Weighted(f"l{i}", 1) for i in range(8)]
        batches = plan_batches(tasks, 4)
        for batch in batches:
            assert sum(1 for t in batch if t.estimated_states == 1000) == 1

    def test_batch_internal_order_is_largest_first(self):
        tasks = [Weighted(f"t{i}", i + 1) for i in range(9)]
        for batch in plan_batches(tasks, 3):
            sizes = [t.estimated_states for t in batch]
            assert sizes == sorted(sizes, reverse=True)


class TestSolveBatch:
    def test_matches_per_task_results(self, cooling_sdft):
        tasks = make_tasks(cooling_sdft)
        expected = [solve_task(task) for task in tasks]
        got = solve_batch(tuple(tasks))
        assert [r.task_id for r in got] == [r.task_id for r in expected]
        assert [r.probability for r in got] == [
            r.probability for r in expected
        ]
        assert [r.chain_states for r in got] == [
            r.chain_states for r in expected
        ]


class TestRunBatched:
    def test_bit_identical_to_per_task_dispatch(self, cooling_sdft):
        tasks = make_tasks(cooling_sdft)
        farm = SolverFarm(jobs=2)
        try:
            batched = {r.task_id: r for r in farm.run_batched(tasks)}
            assert sum(farm.batch_sizes) == len(tasks)
        finally:
            farm.close()
        per_task = {task.task_id: solve_task(task) for task in tasks}
        assert set(batched) == set(per_task) == set(range(len(tasks)))
        for task_id in per_task:
            assert batched[task_id].probability == (
                per_task[task_id].probability
            )
            assert batched[task_id].chain_states == (
                per_task[task_id].chain_states
            )
            assert batched[task_id].ok

    def test_task_timeout_falls_back_to_per_task_dispatch(self, cooling_sdft):
        tasks = make_tasks(cooling_sdft)
        farm = SolverFarm(jobs=2, task_timeout=30.0)
        try:
            results = list(farm.run_batched(tasks))
        finally:
            farm.close()
        assert len(results) == len(tasks)
        assert all(r.ok for r in results)
        # A batch cannot be interrupted mid-flight: the deadline is per task.
        assert farm.batch_sizes == [1] * len(tasks)

    def test_run_state_resets_between_runs(self, cooling_sdft):
        tasks = make_tasks(cooling_sdft)
        farm = SolverFarm(jobs=2)
        try:
            list(farm.run_batched(tasks))
            first = list(farm.batch_sizes)
            list(farm.run_batched(tasks))
            assert farm.batch_sizes == first  # per-run, not cumulative
            assert farm.events == []
        finally:
            farm.close()


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
class TestModelTable:
    def test_tasks_resolve_models_by_index(self, cooling_sdft):
        tasks = make_tasks(cooling_sdft)
        by_index = [
            SolveTask(
                task_id=task.task_id,
                model=None,
                horizon=task.horizon,
                epsilon=task.epsilon,
                max_chain_states=task.max_chain_states,
                cutset=task.cutset,
                estimated_states=task.estimated_states,
                model_index=index,
            )
            for index, task in enumerate(tasks)
        ]
        farm = SolverFarm(jobs=2)
        try:
            farm.set_model_table([t.model for t in tasks], key="test-table")
            expected = {r.task_id: r for r in farm.run_batched(tasks)}
            got = {r.task_id: r for r in farm.run_batched(by_index)}
        finally:
            farm.close()
        assert set(got) == set(expected)
        for task_id, result in got.items():
            assert result.ok, result.error
            assert result.probability == expected[task_id].probability

    def test_table_reinstall_with_same_key_is_free(self):
        farm = SolverFarm(jobs=2)
        try:
            farm.set_model_table(["m1"], key="k")
            epoch = pool_module._MODEL_EPOCH
            farm._pool = object()  # simulate a live pool  # type: ignore
            farm.set_model_table(["m1"], key="k")
            assert pool_module._MODEL_EPOCH == epoch
            farm._pool = None
            farm.set_model_table(["m2"], key="k2")
            assert pool_module._MODEL_EPOCH == epoch + 1
        finally:
            farm._pool = None
            farm.close()


class TestWarmFarm:
    def test_reused_for_same_jobs(self):
        shutdown_warm_farm()
        first = warm_farm(2)
        second = warm_farm(2)
        assert first is second
        shutdown_warm_farm()

    def test_rebuilt_for_different_jobs(self):
        shutdown_warm_farm()
        first = warm_farm(2)
        second = warm_farm(3)
        assert first is not second
        assert second.jobs == 3
        shutdown_warm_farm()

    def test_timeout_update_keeps_the_farm(self):
        shutdown_warm_farm()
        first = warm_farm(2, task_timeout=None)
        second = warm_farm(2, task_timeout=1.5)
        assert first is second
        assert second.task_timeout == 1.5
        shutdown_warm_farm()

    def test_option_changes_reuse_the_warm_pool(self, cooling_sdft):
        """Workers read ``epsilon``/``max_chain_states`` from each task,
        never from state inherited through the fork, so one warm pool
        serves analyses whose options keep changing."""
        from tests.perf.test_parallel_analyzer import assert_identical

        shutdown_warm_farm()
        try:
            pools = set()
            for epsilon, max_chain_states in [
                (1e-12, 200_000),
                (1e-9, 100),
                (1e-12, 100),
                (1e-9, 200_000),
            ]:
                opts = AnalysisOptions(
                    horizon=24.0,
                    epsilon=epsilon,
                    max_chain_states=max_chain_states,
                )
                serial = analyze(cooling_sdft, opts)
                parallel = analyze(cooling_sdft, replace(opts, jobs=2))
                assert_identical(serial, parallel)
                assert not [
                    e for e in parallel.health.events if e.stage == "pool"
                ]
                farm = warm_farm(2)
                assert farm.batch_sizes, "the pool must have served the run"
                pools.add(id(farm._pool))
            assert len(pools) == 1  # never recycled between the runs
        finally:
            shutdown_warm_farm()

    def test_shutdown_is_idempotent(self):
        shutdown_warm_farm()
        shutdown_warm_farm()
        assert warm_farm(2) is not None
        shutdown_warm_farm()
