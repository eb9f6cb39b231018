"""The process-pool solver farm for unique cutset models.

Each :class:`SolveTask` carries one unique ``FT_C`` model (picklable —
plain data all the way down) plus its solver knobs and per-task
resource allowances; :func:`solve_task` runs in a worker process and
solves it with the very solve body
:func:`repro.core.quantify.quantify_model` uses
(:func:`repro.core.quantify.solve_product`), behind the same
fault-injection checkpoints, so parallel runs degrade identically to
serial ones under the same faults.

Failures never escape a worker as exceptions: every error is captured
into the returned :class:`SolveResult`, and the parent decides how to
recover.  The farm has one dispatch path,
:meth:`SolverFarm.run_batched`, and one recovery: when the pool breaks
— a dead worker, a watchdog termination of a task past its optional
wall deadline, a failed submit — the pool is recycled and every task
still without a result comes back as a failed result.  Nothing is
retried here: the analyzer answers each failed task in-process,
exactly as a ``jobs=1`` run would.  Every recovery is recorded as a
:class:`FarmEvent` for the run-health report.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.perf.schedule import plan_batches

__all__ = [
    "FarmEvent",
    "SolveResult",
    "SolveTask",
    "SolverFarm",
    "resolve_jobs",
    "shutdown_warm_farm",
    "solve_batch",
    "solve_task",
    "warm_farm",
]

#: Longest watchdog poll period under a per-task deadline: frequent
#: enough to observe which tasks are *running*, rare enough to cost
#: nothing next to a chain solve.
_WATCH_TICK_SECONDS = 0.1

#: The deduped model table shared with forked workers.  The parent
#: installs it (:meth:`SolverFarm.set_model_table`) *before* the
#: persistent pool forks; children inherit the whole table through the
#: fork snapshot, so a :class:`SolveTask` can reference its model by
#: ``model_index`` instead of pickling the matrices per task.
_MODEL_TABLE: tuple = ()

#: Bumped on every table install; a pool forked under an older epoch
#: holds stale models and is recycled before the next dispatch.
_MODEL_EPOCH: int = 0


def fork_available() -> bool:
    """Whether the ``fork`` start method (inherited state) exists here."""
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return True


def resolve_jobs(jobs) -> int:
    """Normalise a ``--jobs`` value to a positive worker count.

    ``"auto"`` (or ``None``) means one worker per CPU the process may
    use; integers (and integer strings) pass through.  ``1`` means the
    serial in-process path — no pool is created at all.
    """
    if jobs is None or jobs == "auto":
        try:
            return len(os.sched_getaffinity(0)) or 1
        except AttributeError:  # platforms without CPU affinity
            return os.cpu_count() or 1
    count = int(jobs)
    if count < 1:
        raise ValueError(f"jobs must be >= 1 or 'auto', got {jobs!r}")
    return count


@dataclass(frozen=True)
class SolveTask:
    """One unique quantification problem, ready to cross a process boundary.

    ``model`` is the cutset's ``FT_C`` :class:`~repro.core.sdft.SdFaultTree`;
    ``cutset`` names the representative cutset (fault-injection context
    and error messages).  ``wall_allowance``/``state_allowance`` bound
    the worker-local budget — the parent derives them from the run
    budget's remaining headroom at dispatch time, so a worker cannot
    overrun the deadline unobserved.  ``estimated_states`` drives the
    largest-first schedule.
    """

    task_id: int
    model: object
    horizon: float
    epsilon: float
    max_chain_states: int
    cutset: tuple[str, ...]
    wall_allowance: float | None = None
    state_allowance: int | None = None
    estimated_states: int = 0
    #: When set, the worker records a ``pool.task`` span plus solver
    #: metrics and ships them back on the result (parent-side merge).
    collect_obs: bool = False
    #: Dispatch wall-clock (``time.time()``) for queue-wait accounting.
    submitted_at: float | None = None
    #: When ``model`` is ``None``, the index of the model in the
    #: fork-inherited table installed by
    #: :meth:`SolverFarm.set_model_table` — the zero-copy shipping path.
    model_index: int = -1


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one unique solve — value or captured failure.

    ``probability`` is the *dynamic* reachability probability of the
    model (not yet multiplied by any cutset's static factor, which is
    member-specific).  ``error_kind`` classifies captured failures:
    ``"analysis"``/``"numerical"`` for solver errors, ``"budget"`` for
    an exhausted per-task allowance, ``"timeout"`` for a task that
    overran its wall deadline, and ``"crash"`` for anything else
    (including a task lost with a broken pool).
    """

    task_id: int
    probability: float = 0.0
    chain_states: int = 0
    solve_seconds: float = 0.0
    error: str | None = None
    error_kind: str | None = None
    #: Worker-recorded span payloads (dicts) and metrics snapshot,
    #: shipped back for the parent trace when the task collected them.
    spans: tuple = ()
    metrics: dict | None = None
    queue_wait_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the solve produced a value."""
        return self.error is None


def solve_task(task: SolveTask) -> SolveResult:
    """Solve one unique model; runs inside a worker process.

    Builds the product chain and hands it to
    :func:`repro.core.quantify.solve_product`, the solve body
    :func:`~repro.core.quantify.quantify_model` uses too — so a fault
    armed before the pool forked trips here exactly as it would have in
    a ``jobs=1`` run.
    """
    from repro.core.quantify import solve_product
    from repro.ctmc.product import build_product
    from repro.errors import AnalysisError, BudgetExceededError, NumericalError
    from repro.obs.core import NULL_OBS, Observability
    from repro.robust import faults
    from repro.robust.budget import Budget

    obs = NULL_OBS
    if task.collect_obs:
        # A worker-local trace slice: span ids are prefixed with the
        # task id so the parent can merge every worker's records into
        # one trace without collisions.
        obs = Observability.collecting(prefix=f"t{task.task_id}.")
    queue_wait = 0.0
    if task.submitted_at is not None:
        queue_wait = max(0.0, time.time() - task.submitted_at)

    def _shipped(result: SolveResult) -> SolveResult:
        if not obs.enabled:
            return result
        import dataclasses

        return dataclasses.replace(
            result,
            spans=tuple(r.to_dict() for r in obs.tracer.records()),
            metrics=obs.metrics.snapshot(),
            queue_wait_seconds=queue_wait,
        )

    started = time.perf_counter()
    cutset = frozenset(task.cutset)
    model = task.model if task.model is not None else _MODEL_TABLE[task.model_index]
    try:
        with obs.tracer.span(
            "pool.task",
            task_id=task.task_id,
            pid=os.getpid(),
            cutset="+".join(task.cutset),
            queue_wait_seconds=queue_wait,
        ) as span:
            # Process-level fault stage: a chaos campaign's ``when``
            # predicate may SIGKILL this very process here, simulating
            # the hard worker death the farm must survive.
            faults.check("worker_kill", cutset=cutset)
            budget = None
            if task.wall_allowance is not None or task.state_allowance is not None:
                budget = Budget(
                    wall_seconds=task.wall_allowance,
                    max_total_states=task.state_allowance,
                )
            faults.check("chain_build", cutset=cutset)
            product = build_product(model, max_states=task.max_chain_states)
            probability = solve_product(
                product, task.horizon, task.epsilon, budget, obs.metrics, cutset
            )
            span.set(chain_states=product.n_states, probability=probability)
    except BudgetExceededError as error:
        return _shipped(
            SolveResult(task.task_id, error=str(error), error_kind="budget")
        )
    except NumericalError as error:
        return _shipped(
            SolveResult(task.task_id, error=str(error), error_kind="numerical")
        )
    except AnalysisError as error:
        return _shipped(
            SolveResult(task.task_id, error=str(error), error_kind="analysis")
        )
    except Exception as error:  # a worker must never raise across the pool
        return _shipped(
            SolveResult(
                task.task_id,
                error=f"{type(error).__name__}: {error}",
                error_kind="crash",
            )
        )
    return _shipped(
        SolveResult(
            task.task_id,
            probability=probability,
            chain_states=product.n_states,
            solve_seconds=time.perf_counter() - started,
        )
    )


def solve_batch(tasks: tuple[SolveTask, ...]) -> list[SolveResult]:
    """Solve every task of a batch in one worker call, in batch order.

    One pickle round-trip per *batch* instead of per task — with the
    model table fork-inherited, the payload is just task ids, indices
    and scalar knobs.  Each task is still solved by :func:`solve_task`
    with its own error capture, so a numerically failing solve cannot
    take its batch siblings down; only a hard worker death loses the
    batch.
    """
    return [solve_task(task) for task in tasks]


@dataclass(frozen=True)
class FarmEvent:
    """One recovery action of the farm, for health/metrics surfacing.

    ``kind`` is ``"rebuild"`` (the pool broke and was recycled; the
    tasks it lost came back as failures) or ``"timeout"`` (a task
    overran its wall deadline; ``task_id`` and ``cutset`` name it).
    """

    kind: str
    message: str
    task_id: int | None = None
    cutset: tuple[str, ...] | None = None


class SolverFarm:
    """Run solve tasks in batches on a warm process pool.

    Tasks are packed into balanced batches, largest estimated chain
    first (:func:`repro.perf.schedule.plan_batches`); results stream
    back in completion order — the caller is responsible for folding
    them deterministically.  Every task yields exactly one
    :class:`SolveResult`, whatever happens to its worker:

    * **Pool breakage** — a dead worker (SIGKILL, OOM, segfault) breaks
      the whole :class:`~concurrent.futures.ProcessPoolExecutor`, and so
      does a submit to a pool that died between runs.  Results that
      already landed are kept; the pool is recycled (one ``rebuild``
      event) and every task still without a result is returned as an
      ``error_kind="crash"`` failure.
    * **Hung task** — with ``task_timeout`` set, every batch holds one
      task and a watchdog terminates the workers once a task overruns
      the deadline.  That task is returned as a ``"timeout"`` failure;
      the unfinished rest are handled as for any breakage.

    The farm never requeues: the analyzer re-solves every failed task
    in-process through the ``jobs=1`` path.  Recovery actions are
    appended to :attr:`events`; the analyzer turns them into run-health
    entries and ``pool.*`` metrics.
    """

    def __init__(self, jobs: int, task_timeout: float | None = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0, got {task_timeout}")
        self.jobs = jobs
        self.task_timeout = task_timeout
        self.events: list[FarmEvent] = []
        self.batch_sizes: list[int] = []
        # The persistent pool, kept warm across runs.
        self._pool: ProcessPoolExecutor | None = None
        self._pool_epoch = -1
        self._pool_tainted = False  # forked while faults were armed
        self._table_key: object = None

    @staticmethod
    def _context():
        """Fork where available: cheap task shipping, inherited state."""
        try:
            return multiprocessing.get_context("fork")
        except ValueError:
            return None

    def set_model_table(self, models, key) -> None:
        """Install the deduped model table for fork-inherited shipping.

        ``key`` identifies the table's content (e.g. the tuple of group
        fingerprints); re-installing the same key is free.  A changed
        table bumps the global epoch, which recycles the persistent
        pool before its next dispatch — workers forked under the old
        table must never serve the new indices.
        """
        global _MODEL_TABLE, _MODEL_EPOCH
        if key == self._table_key and self._pool is not None:
            return
        _MODEL_TABLE = tuple(models)
        _MODEL_EPOCH += 1
        self._table_key = key

    def _persistent_pool(self) -> ProcessPoolExecutor:
        """The warm pool, recycled when stale.

        Stale means: forked under an older model table, forked while
        fault injection was armed (workers inherited armed faults), or
        faults are armed *now* (the next fork must inherit them).
        """
        from repro.robust import faults

        armed = faults.any_armed()
        if self._pool is not None and (
            self._pool_tainted or armed or self._pool_epoch != _MODEL_EPOCH
        ):
            self._recycle()
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=self._context()
            )
            self._pool_epoch = _MODEL_EPOCH
            self._pool_tainted = armed
        return self._pool

    def _recycle(self) -> None:
        if self._pool is not None:
            try:
                self._pool.shutdown(wait=True)
            except Exception:
                pass  # a broken pool may refuse a clean shutdown
            self._pool = None

    def close(self) -> None:
        """Shut the persistent pool down (idempotent)."""
        self._recycle()

    def run_batched(self, tasks: Iterable[SolveTask]) -> Iterator[SolveResult]:
        """Yield one result per task, in completion order.

        Tasks are packed into ``~4×jobs`` batches and submitted to the
        warm pool, one pickle round-trip per batch.  With
        ``task_timeout`` set each batch holds one task: a batch cannot
        be interrupted mid-flight, and the deadline is per task.  A
        pool breakage ends dispatch (see the class docstring).
        """
        queue = list(tasks)
        self.events = []
        self.batch_sizes = []
        if not queue:
            return
        timeout = self.task_timeout
        batches = [
            tuple(batch)
            for batch in plan_batches(
                queue, len(queue) if timeout is not None else self.jobs * 4
            )
        ]
        self.batch_sizes = [len(batch) for batch in batches]
        pool = self._persistent_pool()
        pending: dict[Future, tuple[SolveTask, ...]] = {}
        cause = None
        try:
            for batch in batches:
                pending[pool.submit(solve_batch, batch)] = batch
        except Exception as error:
            cause = f"a failed submit ({type(error).__name__})"
        lost = [task for batch in batches[len(pending):] for task in batch]
        tick = None
        if timeout is not None:
            tick = max(0.01, min(_WATCH_TICK_SECONDS, timeout / 4.0))
        running_since: dict[Future, float] = {}
        overdue: list[SolveTask] = []
        while pending and cause is None:
            done, _ = wait(pending, timeout=tick, return_when=FIRST_COMPLETED)
            for future in done:
                error = future.exception()
                if error is not None:
                    cause = f"a failed batch ({type(error).__name__})"
                    break
                del pending[future]
                yield from future.result()
            if cause is not None or timeout is None:
                continue
            now = time.monotonic()
            for future in pending:
                if future.running():
                    running_since.setdefault(future, now)
            for future, since in running_since.items():
                if future in pending and not future.done() and now - since > timeout:
                    (task,) = pending.pop(future)
                    overdue.append(task)
                    self.events.append(
                        FarmEvent(
                            "timeout",
                            f"task exceeded its {timeout:g}s wall deadline; "
                            f"workers terminated",
                            task.task_id,
                            task.cutset,
                        )
                    )
            if overdue:
                cause = "a watchdog termination"
                for process in list(getattr(pool, "_processes", {}).values()):
                    process.terminate()
        if cause is None:
            return
        # The pool is gone: a result that landed before the breakage is
        # kept, every other task is lost with it.
        for future, batch in pending.items():
            if future.done() and future.exception() is None:
                yield from future.result()
            else:
                lost.extend(batch)
        self._recycle()
        self.events.append(
            FarmEvent(
                "rebuild",
                f"process pool recycled after {cause}; "
                f"{len(overdue) + len(lost)} unfinished task(s) left to "
                f"the in-process path",
            )
        )
        for task in overdue:
            yield SolveResult(
                task.task_id,
                error=f"task exceeded its {timeout:g}s wall deadline",
                error_kind="timeout",
            )
        for task in lost:
            yield SolveResult(
                task.task_id,
                error=f"task lost with the process pool after {cause}",
                error_kind="crash",
            )


#: The process-wide warm farm, shared by consecutive analyses in one
#: process (the CLI, tests, future service loops) so the pool fork and
#: worker imports are paid once, not per analysis.
_WARM_FARM: SolverFarm | None = None


def warm_farm(jobs: int, task_timeout: float | None = None) -> SolverFarm:
    """The lazily-created shared farm for ``jobs`` workers.

    A different ``jobs`` count shuts the previous farm down and builds
    a new one; a different ``task_timeout`` just updates the attribute
    (it sets the batch size and the watchdog deadline of the next run).
    Solver options never stale the pool: every :class:`SolveTask`
    carries its own ``epsilon`` and ``max_chain_states``.  The farm's
    persistent pool is closed automatically at interpreter exit; call
    :func:`shutdown_warm_farm` for an explicit shutdown.
    """
    global _WARM_FARM
    if _WARM_FARM is not None and _WARM_FARM.jobs != jobs:
        shutdown_warm_farm()
    if _WARM_FARM is None:
        _WARM_FARM = SolverFarm(jobs, task_timeout=task_timeout)
    else:
        _WARM_FARM.task_timeout = task_timeout
    return _WARM_FARM


def shutdown_warm_farm() -> None:
    """Close the shared farm's pool and forget it (idempotent)."""
    global _WARM_FARM
    if _WARM_FARM is not None:
        _WARM_FARM.close()
        _WARM_FARM = None


atexit.register(shutdown_warm_farm)
