"""The solver farm: worker correctness, fault capture, jobs resolution."""

import pytest

from repro.core.cutset_model import build_cutset_model
from repro.core.quantify import quantify_model
from repro.errors import NumericalError
from repro.perf.pool import (
    SolveResult,
    SolveTask,
    SolverFarm,
    resolve_jobs,
    solve_task,
)
from repro.perf.schedule import estimate_chain_states
from repro.robust import faults


def make_task(sdft, cutset, task_id=0, **overrides):
    model = build_cutset_model(sdft, cutset)
    assert model.model is not None, "task fixtures must be dynamic cutsets"
    settings = dict(
        task_id=task_id,
        model=model.model,
        horizon=24.0,
        epsilon=1e-12,
        max_chain_states=200_000,
        cutset=tuple(sorted(cutset)),
        estimated_states=estimate_chain_states(model.model),
    )
    settings.update(overrides)
    return model, SolveTask(**settings)


def run_farm(tasks, jobs=2):
    """Results by task id from one ``run_batched`` on a fresh farm."""
    farm = SolverFarm(jobs=jobs)
    try:
        return {r.task_id: r for r in farm.run_batched(tasks)}
    finally:
        farm.close()


class TestResolveJobs:
    def test_integers_pass_through(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4

    def test_integer_strings_pass_through(self):
        assert resolve_jobs("4") == 4

    def test_auto_and_none_use_available_cpus(self):
        assert resolve_jobs("auto") >= 1
        assert resolve_jobs(None) == resolve_jobs("auto")

    @pytest.mark.parametrize("bad", [0, -1, "0"])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            resolve_jobs(bad)


class TestSolveTask:
    def test_matches_the_serial_solver(self, cooling_sdft):
        model, task = make_task(cooling_sdft, frozenset({"b", "d"}))
        result = solve_task(task)
        serial = quantify_model(model, 24.0)
        assert result.ok
        assert result.probability * model.static_factor == serial.probability
        assert result.chain_states == serial.chain_states
        assert result.solve_seconds > 0.0

    def test_numerical_fault_is_captured(self, cooling_sdft):
        _, task = make_task(cooling_sdft, frozenset({"b", "d"}))
        with faults.inject("transient_solve", NumericalError("forced")):
            result = solve_task(task)
        assert not result.ok
        assert result.error_kind == "numerical"
        assert "forced" in result.error

    def test_unexpected_error_is_captured_as_crash(self, cooling_sdft):
        _, task = make_task(cooling_sdft, frozenset({"b", "d"}))
        with faults.inject("transient_solve", RuntimeError("boom")):
            result = solve_task(task)
        assert not result.ok
        assert result.error_kind == "crash"
        assert "RuntimeError" in result.error

    def test_state_allowance_is_enforced(self, cooling_sdft):
        _, task = make_task(
            cooling_sdft, frozenset({"b", "d"}), state_allowance=1
        )
        result = solve_task(task)
        assert not result.ok
        assert result.error_kind == "budget"

    def test_fault_predicate_targets_the_cutset(self, cooling_sdft):
        """``when=`` predicates see the task's cutset inside the worker path."""
        _, task = make_task(cooling_sdft, frozenset({"b", "d"}))
        with faults.inject(
            "transient_solve",
            NumericalError("targeted"),
            when=lambda cutset: cutset == frozenset({"b", "d"}),
        ):
            assert solve_task(task).error_kind == "numerical"
        with faults.inject(
            "transient_solve",
            NumericalError("other"),
            when=lambda cutset: cutset == frozenset({"never"}),
        ):
            assert solve_task(task).ok


class TestSolverFarm:
    def test_one_result_per_task_matching_serial(self, cooling_sdft):
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
        results = run_farm(tasks)
        assert sorted(results) == [0, 1, 2]
        for i, model in enumerate(models):
            serial = quantify_model(model, 24.0)
            assert results[i].ok
            assert (
                results[i].probability * model.static_factor
                == serial.probability
            )
            assert results[i].chain_states == serial.chain_states

    def test_empty_task_list(self):
        assert run_farm([]) == {}

    def test_rejects_non_positive_jobs(self):
        with pytest.raises(ValueError):
            SolverFarm(jobs=0)

    def test_parent_armed_fault_trips_inside_the_worker(self, cooling_sdft):
        """Fork inheritance: faults armed before the pool starts trip in
        workers, and the failure comes back as a result, not an exception."""
        _, good = make_task(cooling_sdft, frozenset({"b", "c"}), task_id=0)
        _, doomed = make_task(cooling_sdft, frozenset({"b", "d"}), task_id=1)
        with faults.inject(
            "transient_solve",
            NumericalError("worker fault"),
            when=lambda cutset: cutset == frozenset({"b", "d"}),
        ):
            results = run_farm([good, doomed])
        assert results[0].ok
        assert not results[1].ok
        assert results[1].error_kind == "numerical"

    def test_results_are_plain_data(self, cooling_sdft):
        _, task = make_task(cooling_sdft, frozenset({"b", "d"}))
        (result,) = run_farm([task], jobs=1).values()
        assert isinstance(result, SolveResult)
        assert result.ok
