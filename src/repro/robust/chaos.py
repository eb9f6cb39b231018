"""Seeded chaos campaigns: prove the pipeline fails loudly, never wrongly.

The resilience layer makes a strong promise: whatever breaks mid-run —
a solver failure, a silently corrupted value, a killed worker, a hung
task — an analysis either raises a typed :class:`~repro.errors.ReproError`
or returns a result whose reported interval still brackets the true
answer, with every deviation accounted for in the health report.  This
module *tests that promise against randomized adversity*: a campaign
runs the same model many times, each under a seeded random schedule of
injected faults (:mod:`repro.robust.faults`), and classifies every run:

* ``"clean"``   — the armed faults never tripped; the result is
  bit-identical to the clean reference run;
* ``"loud"``    — the run raised a typed :class:`ReproError` (an
  acceptable, honest failure);
* ``"bracketed"`` — the run returned a (degraded) result whose interval
  brackets the clean answer and whose cutset accounting is complete;
* ``"silent"``  — the run returned a result that is *wrong without
  saying so*: the interval misses the clean answer, or cutsets vanished
  from the accounting.  This is the outcome the whole robustness stack
  exists to make impossible; one of these fails the campaign.
* ``"contract"`` — the run escaped with an exception outside the
  :class:`ReproError` hierarchy (an API-contract break; also fails the
  campaign).

Fault schedules draw from exception faults (solver stages, MOCUS),
silent value corruptions (NaN, negative, over-unity, inflated — all
chosen to be *detectable* by the ``verify`` layer's invariants; a
sub-worst-case inflation can only be caught by ``verify="full"``
re-quantification and is deliberately not part of the campaign),
persistent-cache faults (a NaN served from a prewarmed on-disk solve
cache, and a cache prewarmed at a *different horizon* whose stale
entries must miss, not serve) and — when ``jobs > 1`` —
process-level faults: a SIGKILLed worker and a hung task that the
farm's watchdog must reap.  Everything is deterministic in ``seed``;
campaigns are exposed as ``sdft chaos`` and run in CI.
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
import time
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import AnalysisError, NumericalError, ReproError
from repro.robust import faults

if TYPE_CHECKING:
    import random

    from repro.core.analyzer import AnalysisOptions
    from repro.core.sdft import SdFaultTree

__all__ = ["CampaignReport", "RunOutcome", "run_campaign"]

#: Wall deadline given to the pool watchdog when the hang fault is armed.
_HANG_TIMEOUT_SECONDS = 0.5

#: How long the hung worker sleeps (must exceed the watchdog deadline).
_HANG_SECONDS = 2.0

#: Relative slack when testing whether an interval brackets the clean
#: answer (pure float accumulation differences).
_BRACKET_RTOL = 1e-9

#: Catalogue entries that need a prewarmed per-run cache directory.
_CACHE_FAULTS = frozenset({"nan@cache_value", "stale@cache_entry"})


@dataclass(frozen=True)
class RunOutcome:
    """Classification of one faulted analysis run."""

    run: int
    faults: tuple[str, ...]
    outcome: str  # "clean" | "loud" | "bracketed" | "silent" | "contract"
    detail: str
    probability: float | None = None
    interval: tuple[float, float] | None = None
    degraded_cutsets: int = 0

    @property
    def ok(self) -> bool:
        """Whether the run honoured the fail-loudly-or-bracket contract."""
        return self.outcome in ("clean", "loud", "bracketed")


@dataclass(frozen=True)
class CampaignReport:
    """Everything a chaos campaign observed, JSON-serialisable."""

    model: str
    runs: int
    seed: int
    jobs: int
    verify: str
    clean_probability: float
    clean_interval: tuple[float, float]
    clean_cutsets: int
    outcomes: tuple[RunOutcome, ...]
    elapsed_seconds: float

    @property
    def ok(self) -> bool:
        """Whether every run failed loudly or stayed bracketed."""
        return all(outcome.ok for outcome in self.outcomes)

    def counts(self) -> dict[str, int]:
        """Outcome histogram."""
        histogram: dict[str, int] = {}
        for outcome in self.outcomes:
            histogram[outcome.outcome] = histogram.get(outcome.outcome, 0) + 1
        return histogram

    def to_dict(self) -> dict:
        """Plain-data form for the JSON report."""
        return {
            "model": self.model,
            "runs": self.runs,
            "seed": self.seed,
            "jobs": self.jobs,
            "verify": self.verify,
            "clean_probability": self.clean_probability,
            "clean_interval": list(self.clean_interval),
            "clean_cutsets": self.clean_cutsets,
            "ok": self.ok,
            "counts": self.counts(),
            "elapsed_seconds": self.elapsed_seconds,
            "outcomes": [
                {
                    "run": o.run,
                    "faults": list(o.faults),
                    "outcome": o.outcome,
                    "detail": o.detail,
                    "probability": o.probability,
                    "interval": list(o.interval) if o.interval else None,
                    "degraded_cutsets": o.degraded_cutsets,
                }
                for o in self.outcomes
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        """The JSON campaign report (``sdft chaos --report``)."""
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        """Human-readable campaign digest."""
        counts = self.counts()
        ordered = ", ".join(
            f"{counts[k]} {k}"
            for k in ("clean", "loud", "bracketed", "silent", "contract")
            if k in counts
        )
        lines = [
            f"chaos campaign: {self.runs} runs on {self.model!r} "
            f"(seed {self.seed}, jobs {self.jobs}, verify {self.verify})",
            f"clean answer: {self.clean_probability:.6e} over "
            f"{self.clean_cutsets} cutsets",
            f"outcomes: {ordered or 'none'}",
            f"verdict: {'OK — no silent corruption' if self.ok else 'FAILED'} "
            f"({self.elapsed_seconds:.1f}s)",
        ]
        for outcome in self.outcomes:
            if not outcome.ok:
                lines.append(
                    f"  run {outcome.run} [{', '.join(outcome.faults)}]: "
                    f"{outcome.outcome} — {outcome.detail}"
                )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Fault catalogue
# ----------------------------------------------------------------------


def _worker_kill_once(latch_path: str) -> Callable[..., bool]:
    """A ``worker_kill`` predicate that SIGKILLs exactly one worker.

    The latch file is the cross-process "already done" flag: fork gives
    every worker its own copy of the armed fault, so an in-memory
    counter could not stop the second worker — the filesystem can.
    """

    def predicate(**_context: object) -> bool:
        if os.path.exists(latch_path):
            return False
        try:
            open(latch_path, "x").close()
        except FileExistsError:
            return False
        os.kill(os.getpid(), signal.SIGKILL)
        return False  # unreachable

    return predicate


def _worker_hang_once(parent_pid: int, latch_path: str) -> Callable[..., bool]:
    """A ``transient_solve`` predicate that stalls one worker.

    Sleeps past the pool watchdog's deadline in exactly one worker
    process (never in the parent, whose in-process recovery re-solve
    must stay fast), then reports "no fault" — the delay itself is the
    fault, and the watchdog must reap it.
    """

    def predicate(**_context: object) -> bool:
        if os.getpid() == parent_pid or os.path.exists(latch_path):
            return False
        try:
            open(latch_path, "x").close()
        except FileExistsError:
            return False
        time.sleep(_HANG_SECONDS)
        return False

    return predicate


def _catalogue(
    rng: "random.Random", jobs: int, scratch_dir: str, run_index: int
) -> "list[tuple[str, Callable[[], object], bool]]":
    """The armable faults for one run: ``(name, arm_thunk, needs_timeout)``.

    ``arm_thunk`` returns the context manager to enter; randomness
    (repeat counts) is drawn from ``rng`` *now* so the schedule is fully
    determined before anything runs.
    """
    entries: "list[tuple[str, Callable[[], object], bool]]" = [
        (
            "numerical@transient_solve",
            lambda times=rng.randint(1, 3): faults.inject(
                "transient_solve",
                NumericalError("chaos: forced solver failure"),
                times=times,
            ),
            False,
        ),
        (
            "analysis@chain_build",
            lambda times=rng.randint(1, 2): faults.inject(
                "chain_build",
                AnalysisError("chaos: forced chain-build failure"),
                times=times,
            ),
            False,
        ),
        (
            "numerical@bound",
            lambda: faults.inject(
                "bound", NumericalError("chaos: forced bound failure"), times=1
            ),
            False,
        ),
        (
            "analysis@mocus",
            lambda: faults.inject(
                "mocus",
                AnalysisError("chaos: forced cutset-generation failure"),
                times=1,
            ),
            False,
        ),
        (
            "nan@solve_value",
            lambda times=rng.randint(1, 2): faults.inject_value(
                "solve_value", float("nan"), times=times
            ),
            False,
        ),
        (
            "negative@solve_value",
            lambda: faults.inject_value("solve_value", -0.5, times=1),
            False,
        ),
        (
            "overunity@solve_value",
            lambda: faults.inject_value("solve_value", 1.5, times=1),
            False,
        ),
        (
            "inflate@solve_value",
            # The inflation lands above 1.0 by construction, so the P1
            # invariant is guaranteed to see it (a sub-worst-case
            # inflation would be a genuinely silent corruption that only
            # full-mode re-quantification could sample).
            lambda: faults.inject_value(
                "solve_value", lambda p: p * 1e12 + 1.1, times=1
            ),
            False,
        ),
        (
            "nan@cache_value",
            # A bit-rotted payload the sqlite layer could not catch: the
            # first solve-layer cache *read* of the run hands back NaN.
            # The verify invariants must flag it exactly like a NaN from
            # a live solve — a cached value gets no trust discount.  The
            # run's cache dir is prewarmed by a clean analysis first
            # (see run_campaign); writes stay disabled while armed, so
            # the corruption can never be persisted back.
            lambda: faults.inject_value(
                "cache_value", float("nan"), times=1
            ),
            False,
        ),
        (
            "stale@cache_entry",
            # No fault armed at all: the run's cache dir is prewarmed at
            # a *different horizon* (see run_campaign).  Every stale
            # entry must miss — a wrong serve would shift the answer and
            # classify "silent"; the correct full-miss run reproduces
            # the reference bit-for-bit and classifies "clean".
            lambda: nullcontext(),
            False,
        ),
    ]
    if jobs > 1:
        kill_latch = os.path.join(scratch_dir, f"kill-{run_index}.latch")
        hang_latch = os.path.join(scratch_dir, f"hang-{run_index}.latch")
        parent = os.getpid()
        entries.append(
            (
                "worker_kill@pool",
                lambda: faults.inject(
                    "worker_kill", when=_worker_kill_once(kill_latch)
                ),
                False,
            )
        )
        entries.append(
            (
                "hang@pool",
                lambda: faults.inject(
                    "transient_solve",
                    when=_worker_hang_once(parent, hang_latch),
                ),
                True,
            )
        )
    return entries


# ----------------------------------------------------------------------
# Campaign runner
# ----------------------------------------------------------------------


def run_campaign(
    sdft: "SdFaultTree",
    runs: int = 20,
    seed: int = 0,
    options: "AnalysisOptions | None" = None,
    verify: str = "cheap",
    jobs: "int | str" = 1,
) -> CampaignReport:
    """Run a seeded chaos campaign against ``sdft``.

    Analyzes the model once cleanly for the reference answer, then
    ``runs`` more times, each under 1–3 faults drawn deterministically
    from the catalogue, with fault isolation and the requested
    ``verify`` mode on.  Never raises for a *failing* campaign — the
    report's :attr:`~CampaignReport.ok` says whether the contract held.
    """
    import random

    from repro.core.analyzer import AnalysisOptions, analyze
    from repro.perf.pool import resolve_jobs

    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    jobs = resolve_jobs(jobs)
    base = options if options is not None else AnalysisOptions(cutoff=1e-10)
    started = time.perf_counter()

    clean_opts = replace(base, fault_isolation=True, verify=verify, jobs=jobs)
    clean = analyze(sdft, clean_opts)
    if clean.is_degraded:
        raise AnalysisError(
            "chaos campaign needs a clean reference run, but the "
            "fault-free analysis already degraded; fix the model or "
            "budget first"
        )
    clean_probability = clean.failure_probability
    clean_interval = clean.failure_probability_interval()
    clean_cutsets = frozenset(record.cutset for record in clean.records)

    outcomes = []
    scratch_dir = tempfile.mkdtemp(prefix="sdft-chaos-")
    try:
        for run_index in range(runs):
            rng = random.Random(f"{seed}:{run_index}")
            entries = _catalogue(rng, jobs, scratch_dir, run_index)
            chosen = rng.sample(entries, rng.randint(1, min(3, len(entries))))
            run_opts = clean_opts
            if any(needs_timeout for _, _, needs_timeout in chosen):
                run_opts = replace(
                    run_opts,
                    pool_task_timeout_seconds=_HANG_TIMEOUT_SECONDS,
                )
            names = tuple(name for name, _, _ in chosen)
            if any(name in _CACHE_FAULTS for name in names):
                # The cache faults only bite when the faulted run has a
                # populated on-disk cache to read from.  Prewarm a
                # per-run directory with clean analyses *before* any
                # fault is armed: same-horizon entries for the
                # corrupted-read fault, different-horizon entries for
                # the staleness probe.
                run_opts = replace(
                    run_opts,
                    cache_dir=os.path.join(
                        scratch_dir, f"cache-{run_index}"
                    ),
                )
                if "nan@cache_value" in names:
                    analyze(sdft, run_opts)
                if "stale@cache_entry" in names:
                    analyze(
                        sdft,
                        replace(run_opts, horizon=run_opts.horizon * 2.0),
                    )
            outcomes.append(
                _one_run(
                    sdft,
                    run_index,
                    names,
                    [arm for _, arm, _ in chosen],
                    run_opts,
                    analyze,
                    clean_probability,
                    clean_cutsets,
                )
            )
    finally:
        faults.clear()
        _cleanup_dir(scratch_dir)

    return CampaignReport(
        model=getattr(sdft, "name", None) or "",
        runs=runs,
        seed=seed,
        jobs=jobs,
        verify=verify,
        clean_probability=clean_probability,
        clean_interval=clean_interval,
        clean_cutsets=len(clean_cutsets),
        outcomes=tuple(outcomes),
        elapsed_seconds=time.perf_counter() - started,
    )


def _one_run(
    sdft: "SdFaultTree",
    run_index: int,
    names: tuple[str, ...],
    arms: "list[Callable[[], object]]",
    run_opts: "AnalysisOptions",
    analyze_fn: Callable,
    clean_probability: float,
    clean_cutsets: frozenset,
) -> RunOutcome:
    """Execute one faulted analysis and classify its outcome."""
    try:
        with ExitStack() as stack:
            for arm in arms:
                stack.enter_context(arm())
            result = analyze_fn(sdft, run_opts)
    except ReproError as error:
        return RunOutcome(
            run_index,
            names,
            "loud",
            f"{type(error).__name__}: {error}",
        )
    except Exception as error:  # the contract break the campaign hunts
        return RunOutcome(
            run_index,
            names,
            "contract",
            f"escaped with non-Repro exception "
            f"{type(error).__name__}: {error}",
        )

    lower, upper = result.failure_probability_interval()
    slack = _BRACKET_RTOL * max(1.0, clean_probability)
    bracketed = lower - slack <= clean_probability <= upper + slack
    accounted = (
        frozenset(record.cutset for record in result.records) == clean_cutsets
    )
    degraded = len(result.health.degraded_cutsets())
    if not accounted:
        return RunOutcome(
            run_index,
            names,
            "silent",
            f"cutset accounting changed: {len(result.records)} records vs "
            f"{len(clean_cutsets)} clean cutsets",
            result.failure_probability,
            (lower, upper),
            degraded,
        )
    if not bracketed:
        return RunOutcome(
            run_index,
            names,
            "silent",
            f"interval [{lower:.6e}, {upper:.6e}] does not bracket the "
            f"clean answer {clean_probability:.6e}",
            result.failure_probability,
            (lower, upper),
            degraded,
        )
    if (
        result.failure_probability == clean_probability
        and not result.is_degraded
    ):
        return RunOutcome(
            run_index,
            names,
            "clean",
            "faults armed but never tripped; result identical to reference",
            result.failure_probability,
            (lower, upper),
            0,
        )
    return RunOutcome(
        run_index,
        names,
        "bracketed",
        f"degraded on {degraded} cutset(s); interval brackets the clean "
        f"answer",
        result.failure_probability,
        (lower, upper),
        degraded,
    )


def _cleanup_dir(path: str) -> None:
    """Best-effort removal of the campaign's latch-file scratch dir."""
    import shutil

    shutil.rmtree(path, ignore_errors=True)


def _iter_outcomes(report: CampaignReport) -> Iterator[RunOutcome]:
    """Convenience for callers that stream outcomes (tests)."""
    yield from report.outcomes
