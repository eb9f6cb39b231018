"""The process-pool solver farm for unique cutset models.

Each :class:`SolveTask` carries one unique ``FT_C`` model (picklable —
plain data all the way down) plus its solver knobs and per-task
resource allowances; :func:`solve_task` runs in a worker process and
mirrors exactly the solving section of
:func:`repro.core.quantify.quantify_model`, including the fault-
injection checkpoints, so parallel runs degrade identically to serial
ones under the same faults.

Failures never escape a worker as exceptions: every error is captured
into the returned :class:`SolveResult`, and the parent decides how to
recover (the analyzer re-runs the affected cutsets through the PR-1
degradation ladder).  A worker that dies outright (a crashed process
breaks the whole :class:`~concurrent.futures.ProcessPoolExecutor`) no
longer costs the rest of the batch: the farm rebuilds the pool with
exponential backoff and requeues the unfinished tasks, striking the
task the dead worker was running — a task that kills its worker
repeatedly is *quarantined* (returned as a failure so the parent
re-solves it in-process), and a task that overruns an optional per-task
wall deadline is terminated by a watchdog and returned as a
``"timeout"`` failure.  Every recovery is recorded as a
:class:`FarmEvent` for the run-health report.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    as_completed,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.perf.schedule import order_largest_first, plan_batches

__all__ = [
    "FarmEvent",
    "SolveBatch",
    "SolveResult",
    "SolveTask",
    "SolverFarm",
    "resolve_jobs",
    "shutdown_warm_farm",
    "solve_batch",
    "solve_task",
    "warm_farm",
]

#: Watchdog poll period when no per-task deadline is set: frequent
#: enough to observe which futures are *running* (crash attribution),
#: rare enough to cost nothing next to a chain solve.
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
    lump_chains: bool
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
    an exhausted per-task allowance, ``"timeout"`` for a task the
    watchdog terminated, ``"quarantined"`` for a task that killed its
    worker too many times, and ``"crash"`` for anything else
    (including a broken pool).
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

    Mirrors the dynamic-solve section of
    :func:`repro.core.quantify.quantify_model` step for step — same
    fault-injection stages, same operations in the same order — so a
    fault armed before the pool forked trips here exactly as it would
    have in a ``jobs=1`` run.
    """
    from repro.ctmc.lumping import lump
    from repro.ctmc.product import build_product
    from repro.ctmc.transient import reach_probability
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
            chain = product.chain
            solved_states = product.n_states
            if task.lump_chains:
                faults.check("lump", cutset=cutset)
                lumped = lump(chain.with_absorbing(chain.failed))
                chain = lumped.chain
                solved_states = chain.n_states
            if budget is not None:
                budget.charge_states(solved_states, "quantify")
            faults.check("transient_solve", cutset=cutset)
            probability = reach_probability(
                chain,
                task.horizon,
                epsilon=task.epsilon,
                budget=budget,
                metrics=obs.metrics,
            )
            probability = faults.corrupt(
                "solve_value", probability, cutset=cutset
            )
            span.set(chain_states=solved_states, probability=probability)
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
            chain_states=solved_states,
            solve_seconds=time.perf_counter() - started,
        )
    )


@dataclass(frozen=True)
class SolveBatch:
    """Many solve tasks shipped across the process boundary in one go.

    One pickle round-trip per *batch* instead of per task — with the
    model table fork-inherited, the payload is just task ids, indices
    and scalar knobs, so the IPC cost per solve collapses.
    """

    tasks: tuple[SolveTask, ...]


def solve_batch(batch: SolveBatch) -> list[SolveResult]:
    """Solve every task of a batch in one worker call, largest first.

    Each task is still solved by :func:`solve_task` with its own error
    capture, so a numerically failing solve cannot take its batch
    siblings down; only a hard worker death loses the batch, and the
    farm then recovers those tasks through the per-task path.
    """
    return [solve_task(task) for task in batch.tasks]


@dataclass(frozen=True)
class FarmEvent:
    """One recovery action of the farm, for health/metrics surfacing.

    ``kind`` is one of ``"rebuild"`` (the pool was recreated after a
    breakage), ``"retry"`` (a crash victim was requeued), ``"timeout"``
    (the watchdog terminated an overrunning task), ``"quarantine"``
    (a task that kills workers was taken off the pool for good),
    ``"probe"`` (a breakage could not be attributed to a task, so the
    next round runs one task at a time to identify the killer) or
    ``"refresh"`` (worker-affecting analysis options changed between
    runs, so the warm pool was deliberately rebuilt — routine, not a
    breakage).
    """

    kind: str
    message: str
    task_id: int | None = None
    cutset: tuple[str, ...] | None = None


class SolverFarm:
    """Run solve tasks on a process pool, yielding results as they land.

    Tasks are dispatched largest-estimated-chain-first (pool tail
    latency); results stream back in completion order — the caller is
    responsible for folding them deterministically.  Every task yields
    exactly one :class:`SolveResult`, whatever happens to its worker:

    * **Worker crash** — a dead worker (SIGKILL, OOM, segfault) breaks
      the whole :class:`~concurrent.futures.ProcessPoolExecutor`; the
      farm rebuilds the pool with exponential backoff and requeues the
      unfinished tasks.  The task a dead worker was running collects a
      *strike* (when the death is too fast to attribute, the suspects
      are probed one per round until it is); at ``max_task_crashes``
      strikes a task is quarantined —
      returned as an ``error_kind="quarantined"`` failure so the parent
      re-solves it in-process — instead of killing pool after pool.
    * **Hung task** — with ``task_timeout`` set, a watchdog terminates
      the workers once a task overruns the deadline; the task is
      returned as an ``error_kind="timeout"`` failure (never retried: a
      task that blew its deadline would blow it again) and the innocent
      tasks are requeued on the rebuilt pool without penalty.
    * **Repeated misfortune** — a task is retried at most
      ``max_task_attempts`` times before it is returned as a
      ``"crash"`` failure.

    Recovery actions are appended to :attr:`events`; the analyzer turns
    them into run-health entries and ``pool.*`` metrics.
    """

    def __init__(
        self,
        jobs: int,
        task_timeout: float | None = None,
        max_task_attempts: int = 3,
        max_task_crashes: int = 2,
        backoff_seconds: float = 0.05,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0, got {task_timeout}")
        self.jobs = jobs
        self.task_timeout = task_timeout
        self.max_task_attempts = max_task_attempts
        self.max_task_crashes = max_task_crashes
        self.backoff_seconds = backoff_seconds
        self.events: list[FarmEvent] = []
        self.rebuilds = 0
        self.batch_sizes: list[int] = []
        self._probe_requested = False
        # The persistent (batched-dispatch) pool, kept warm across runs.
        self._pool: ProcessPoolExecutor | None = None
        self._pool_epoch = -1
        self._pool_tainted = False  # forked while faults were armed
        self._table_key: object = None
        #: Fingerprint of the worker-affecting options the pool was
        #: (re)built for; :func:`warm_farm` compares it between runs.
        self.options_key: object = None
        #: Cumulative option-driven rebuilds (never reset per run).
        self.option_refreshes = 0
        self._pending_refresh = False

    def _reset_run_state(self) -> None:
        """Per-run bookkeeping reset so a warm farm reports per-analysis."""
        self.events = []
        self.rebuilds = 0
        self.batch_sizes = []
        self._probe_requested = False
        if self._pending_refresh:
            # Surface the between-runs option refresh in *this* run's
            # events (the per-run reset would otherwise swallow it).
            self._pending_refresh = False
            self.rebuilds += 1
            self.events.append(
                FarmEvent(
                    "refresh",
                    "analysis options affecting workers changed; "
                    "warm pool rebuilt",
                )
            )

    def refresh_workers(self) -> None:
        """Recycle the persistent pool because worker options changed.

        The recorded event is flushed into the *next* run's event list
        (and counted in its ``pool.rebuilds`` metric), since this is
        called between runs.
        """
        self._recycle()
        self.option_refreshes += 1
        self._pending_refresh = True

    @property
    def timeouts(self) -> int:
        """Tasks the watchdog terminated."""
        return sum(1 for e in self.events if e.kind == "timeout")

    @property
    def quarantined(self) -> int:
        """Tasks taken off the pool for repeatedly killing workers."""
        return sum(1 for e in self.events if e.kind == "quarantine")

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
        """The warm pool for batched dispatch, recycled when stale.

        Stale means: forked under an older model table, forked while
        fault injection was armed (workers inherited armed faults), or
        faults are armed *now* (the next fork must inherit them, so the
        chaos/test semantics of ``run()`` carry over to batches).
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
        """Yield one result per task, dispatched in balanced batches.

        The economic path: tasks are packed into ``~4×jobs`` batches by
        :func:`repro.perf.schedule.plan_batches` and submitted to the
        persistent warm pool, one pickle round-trip per batch.  A batch
        lost to a worker death (or any pool breakage) is recovered
        through :meth:`run`'s per-task path, which preserves the
        strike/quarantine/probe hardening; small task lists, ``jobs=1``
        and per-task watchdog deadlines also fall back to :meth:`run`
        (a batch is not interruptible mid-flight, so timeouts need
        per-task dispatch).
        """
        queue = list(tasks)
        self._reset_run_state()
        if not queue:
            return
        if (
            self.task_timeout is not None
            or self.jobs == 1
            or len(queue) <= self.jobs * 2
        ):
            yield from self._run(queue)
            return
        batches = plan_batches(queue, self.jobs * 4)
        self.batch_sizes = [len(batch) for batch in batches]
        pool = self._persistent_pool()
        fallback: list[SolveTask] = []
        try:
            futures = {
                pool.submit(solve_batch, SolveBatch(tuple(batch))): batch
                for batch in batches
            }
        except Exception:
            # The warm pool died between runs (e.g. its processes were
            # reaped); rebuild through the per-task path.
            self._recycle()
            self.rebuilds += 1
            self.events.append(
                FarmEvent(
                    "rebuild",
                    "warm pool was unusable at dispatch; "
                    "recovering through per-task dispatch",
                )
            )
            yield from self._run(queue)
            return
        for future in as_completed(futures):
            batch = futures[future]
            error = future.exception()
            if error is None:
                yield from future.result()
            else:
                self.rebuilds += 1
                self.events.append(
                    FarmEvent(
                        "rebuild",
                        f"batch of {len(batch)} task(s) lost with the "
                        f"pool ({type(error).__name__}); recovering "
                        f"through per-task dispatch",
                    )
                )
                fallback.extend(batch)
        if fallback:
            self._recycle()
            yield from self._run(fallback)

    def run(self, tasks: Iterable[SolveTask]) -> Iterator[SolveResult]:
        """Yield one result per task, in completion order."""
        self._reset_run_state()
        yield from self._run(tasks)

    def _run(self, tasks: Iterable[SolveTask]) -> Iterator[SolveResult]:
        queue = order_largest_first(tasks)
        if not queue:
            return
        attempts: dict[int, int] = {}
        strikes: dict[int, int] = {}
        while queue:
            # After an unattributable breakage, probe: run a single task
            # on the next pool so a repeat breakage names its killer.
            probe = self._probe_requested
            self._probe_requested = False
            batch = queue[:1] if probe else queue
            deferred = queue[1:] if probe else []
            requeue: list[SolveTask] = []
            for item in self._round(batch, attempts, strikes):
                if isinstance(item, SolveResult):
                    yield item
                else:
                    requeue.append(item)
            requeue.extend(deferred)
            if requeue and len(requeue) > len(deferred):
                self.rebuilds += 1
                self.events.append(
                    FarmEvent(
                        "rebuild",
                        f"process pool rebuilt (rebuild {self.rebuilds}); "
                        f"{len(requeue)} task(s) requeued",
                    )
                )
                if self.backoff_seconds > 0:
                    time.sleep(
                        min(
                            1.0,
                            self.backoff_seconds
                            * (2 ** min(self.rebuilds - 1, 6)),
                        )
                    )
            queue = order_largest_first(requeue)

    def _round(
        self,
        batch: list[SolveTask],
        attempts: dict[int, int],
        strikes: dict[int, int],
    ) -> "Iterator[SolveResult | SolveTask]":
        """One pool lifetime: terminal results and tasks to requeue.

        Polls :func:`~concurrent.futures.wait` on a short tick so it can
        observe which futures are *running* — the only portable way to
        attribute a pool breakage to the task that killed the worker —
        and, when ``task_timeout`` is set, to spot overrunning tasks.
        """
        workers = min(self.jobs, len(batch))
        if self.task_timeout is not None:
            tick = max(0.01, min(_WATCH_TICK_SECONDS, self.task_timeout / 4.0))
        else:
            tick = _WATCH_TICK_SECONDS
        dispatch_order = {task.task_id: i for i, task in enumerate(batch)}
        pool = ProcessPoolExecutor(
            max_workers=workers, mp_context=self._context()
        )
        try:
            pending = {pool.submit(solve_task, task): task for task in batch}
            running_since: dict = {}
            timeout_killed = False
            while pending:
                done, _ = wait(
                    pending, timeout=tick, return_when=FIRST_COMPLETED
                )
                now = time.monotonic()
                for future in pending:
                    if (
                        future not in done
                        and future not in running_since
                        and future.running()
                    ):
                        running_since[future] = now
                if self.task_timeout is not None and not timeout_killed:
                    overdue = [
                        future
                        for future, since in running_since.items()
                        if future in pending
                        and future not in done
                        and now - since > self.task_timeout
                    ]
                    if overdue:
                        timeout_killed = True
                        for future in overdue:
                            task = pending.pop(future)
                            self.events.append(
                                FarmEvent(
                                    "timeout",
                                    f"task exceeded its "
                                    f"{self.task_timeout:g}s wall deadline; "
                                    f"workers terminated",
                                    task.task_id,
                                    task.cutset,
                                )
                            )
                            yield SolveResult(
                                task.task_id,
                                error=f"task exceeded its "
                                f"{self.task_timeout:g}s wall deadline",
                                error_kind="timeout",
                            )
                        # Terminating the workers breaks the pool; every
                        # remaining future resolves with
                        # BrokenProcessPool and is requeued unpenalised.
                        running_since.clear()
                        for process in list(
                            getattr(pool, "_processes", {}).values()
                        ):
                            process.terminate()
                        continue
                broken: list[tuple[SolveTask, bool]] = []
                for future in done:
                    task = pending.pop(future, None)
                    if task is None:  # already resolved (timed out)
                        continue
                    error = future.exception()
                    if error is None:
                        yield future.result()
                    elif isinstance(error, BrokenProcessPool):
                        broken.append((task, future in running_since))
                    else:
                        yield SolveResult(
                            task.task_id,
                            error=f"worker died: "
                            f"{type(error).__name__}: {error}",
                            error_kind="crash",
                        )
                if broken:
                    # The pool is gone: sweep everything still pending —
                    # a result that landed just before the breakage is
                    # kept, the rest joins the casualty list.
                    for future, task in pending.items():
                        if future.done() and future.exception() is None:
                            yield future.result()
                        else:
                            broken.append((task, future in running_since))
                    pending.clear()
                    yield from self._casualties(
                        broken,
                        dispatch_order,
                        workers,
                        timeout_killed,
                        attempts,
                        strikes,
                    )
        finally:
            pool.shutdown(wait=True)

    def _casualties(
        self,
        broken: list[tuple[SolveTask, bool]],
        dispatch_order: dict[int, int],
        workers: int,
        innocent: bool,
        attempts: dict[int, int],
        strikes: dict[int, int],
    ) -> "Iterator[SolveResult | SolveTask]":
        """Classify every task lost with the pool: requeue or give up.

        ``innocent=True`` (a deliberate watchdog termination) requeues
        everything without penalty.  Otherwise tasks observed running on
        the dead worker collect a strike.  If the death was too fast to
        observe any running future, a lone casualty is charged (it is
        the only candidate); with several, nobody is — the runner is
        asked to probe them one per pool round instead, so the next
        breakage identifies its killer without striking innocents, and
        a kill-on-arrival task still can never requeue forever.
        """
        if innocent:
            for task, _ in broken:
                yield task
            return
        if not any(was_running for _, was_running in broken):
            if len(broken) > 1:
                # More casualties than certainty: blaming the first
                # ``workers`` by dispatch order would strike innocents,
                # so nobody is charged — the runner probes tasks one at
                # a time instead, and the next breakage is definitive.
                self._probe_requested = True
                self.events.append(
                    FarmEvent(
                        "probe",
                        f"pool broke before any task was observed "
                        f"running; probing {len(broken)} suspect task(s) "
                        f"one at a time",
                    )
                )
                for task, _ in broken:
                    yield task
                return
            broken = [(task, True) for task, _ in broken]
        for task, was_running in broken:
            tid = task.task_id
            if was_running:
                strikes[tid] = strikes.get(tid, 0) + 1
                attempts[tid] = attempts.get(tid, 0) + 1
            if strikes.get(tid, 0) >= self.max_task_crashes:
                self.events.append(
                    FarmEvent(
                        "quarantine",
                        f"worker died {strikes[tid]} times under this "
                        f"task; quarantined to the in-process path",
                        tid,
                        task.cutset,
                    )
                )
                yield SolveResult(
                    tid,
                    error=f"quarantined after {strikes[tid]} worker crashes",
                    error_kind="quarantined",
                )
            elif attempts.get(tid, 0) >= self.max_task_attempts:
                yield SolveResult(
                    tid,
                    error=f"worker died on all {attempts[tid]} attempts",
                    error_kind="crash",
                )
            elif was_running:
                self.events.append(
                    FarmEvent(
                        "retry",
                        f"worker died under this task; requeued "
                        f"(attempt {attempts[tid] + 1})",
                        tid,
                        task.cutset,
                    )
                )
                yield task
            else:
                yield task


#: The process-wide warm farm, shared by consecutive analyses in one
#: process (the CLI, tests, future service loops) so the pool fork and
#: worker imports are paid once, not per analysis.
_WARM_FARM: SolverFarm | None = None


def warm_farm(
    jobs: int,
    task_timeout: float | None = None,
    options_key: object = None,
) -> SolverFarm:
    """The lazily-created shared farm for ``jobs`` workers.

    A different ``jobs`` count shuts the previous farm down and builds
    a new one; a different ``task_timeout`` just updates the attribute
    (it only gates the batched/per-task dispatch choice and the
    watchdog deadline of the next run).  ``options_key`` fingerprints
    the :class:`~repro.core.analyzer.AnalysisOptions` that affect worker
    behaviour: when it differs from the key the farm was serving, the
    persistent pool is recycled (surfaced as a ``pool.rebuilds`` metric
    on the next run) instead of serving stale worker config.  ``None``
    means "caller doesn't track options" and never
    forces a rebuild.  The farm's persistent pool is closed
    automatically at interpreter exit; call :func:`shutdown_warm_farm`
    for an explicit shutdown.
    """
    global _WARM_FARM
    if _WARM_FARM is not None and _WARM_FARM.jobs != jobs:
        shutdown_warm_farm()
    if _WARM_FARM is None:
        _WARM_FARM = SolverFarm(jobs, task_timeout=task_timeout)
        _WARM_FARM.options_key = options_key
    else:
        _WARM_FARM.task_timeout = task_timeout
        if options_key is not None and _WARM_FARM.options_key != options_key:
            _WARM_FARM.options_key = options_key
            _WARM_FARM.refresh_workers()
    return _WARM_FARM


def shutdown_warm_farm() -> None:
    """Close the shared farm's pool and forget it (idempotent)."""
    global _WARM_FARM
    if _WARM_FARM is not None:
        _WARM_FARM.close()
        _WARM_FARM = None


atexit.register(shutdown_warm_farm)
