"""End-to-end analysis of SD fault trees (the paper's Section V pipeline).

:func:`analyze` chains the three phases:

1. **Translate** — build the static tree ``FT̄`` with worst-case
   probabilities for dynamic events (:mod:`repro.core.to_static`).
2. **Generate** — run MOCUS with the probabilistic cutoff on ``FT̄``;
   its minimal cutsets are exactly those of the SD tree, and the cutoff
   is conservative thanks to the worst-case probabilities.
3. **Quantify** — classify every triggering gate once, then build and
   solve the small ``FT_C`` chain of each dynamic cutset, caching
   repeated model shapes; sum the ``p̃(C)`` above the cutoff
   (rare-event approximation).

For comparison baselines, :func:`analyze_exact` solves the full product
chain (the method that does not scale) and :func:`analyze_static`
evaluates the tree with all timing ignored.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable

from repro.core.classify import classification_report
from repro.core.cutset_model import build_cutset_model
from repro.core.quantify import (
    McsQuantification,
    QuantificationCache,
    quantify_model,
)
from repro.core.results import AnalysisResult, PerfStats, Timings, served_interval
from repro.core.sdft import SdFaultTree, as_sdft
from repro.core.to_static import to_static
from repro.ctmc.transient import check_horizon
from repro.errors import (
    AnalysisError,
    BddBudgetExceeded,
    BudgetExceededError,
    InvariantViolation,
    NumericalError,
)
from repro.ft.cutsets import cutset_probability
from repro.ft.mocus import MocusOptions, MocusResult, mocus
from repro.obs.core import Observability
from repro.robust import faults
from repro.robust.budget import Budget
from repro.robust.health import HealthLog
from repro.robust.verify import Verifier, resolve_mode

if TYPE_CHECKING:
    from repro.core.classify import ClassificationReport
    from repro.core.cutset_model import CutsetModel
    from repro.core.to_static import StaticTranslation
    from repro.ft.tree import FaultTree
    from repro.lint.engine import LintReport
    from repro.perf.cache import SolveCache
    from repro.perf.pool import SolveResult, SolverFarm
    from repro.robust.checkpoint import CheckpointManager

__all__ = [
    "AnalysisOptions",
    "AnalysisReuse",
    "analyze",
    "analyze_curve",
    "analyze_exact",
    "analyze_static",
]


@dataclass(frozen=True)
class AnalysisOptions:
    """Knobs of the end-to-end analysis.

    ``horizon`` is the mission time ``t`` in hours; ``cutoff`` is the
    probabilistic cutoff ``c*`` applied both during MOCUS and to the
    final quantified list; ``epsilon`` bounds the transient solver's
    truncation error; ``max_chain_states`` guards against cutset chains
    that explode (a modelling smell the user should hear about): an
    oversized chain fails the run, or under ``fault_isolation`` is
    answered by the interval approximation of the paper's Section VIII
    (the cutset contributes its conservative upper bound and the result
    reports the interval).

    Static quantification (:mod:`repro.bdd`): a *static* (trigger-free,
    no dynamic events) model's top probability is served exactly by
    compiling the static tree into a BDD (module-wise, with automatic
    ordering selection).  ``bdd_node_budget`` caps the node table per
    compilation scope; a compilation that would exceed it is abandoned
    cleanly (:class:`~repro.errors.BddBudgetExceeded`) and the run
    falls back to cutset aggregation with a health note.  Dynamic models
    always use the cutset path.  The result's ``method`` field labels
    what was served: ``"bdd-exact"``, ``"mcs-rare-event"``, or
    ``"mcs-min-cut-ub"`` (the sound substitute when the rare-event sum
    overshoots 1.0).  The cutset records are produced either way —
    importance measures and per-cutset diagnostics do not change.

    ``mocus_probability_overrides`` replaces the probabilities of the
    named events in the static translation before MOCUS runs — the
    paper's "static cutoff" (Section VI: "We use the static cutoff in
    all experiments"): the cutset list is generated against the original
    static probabilities so it stays identical across dynamic
    parameterisations (e.g. phase counts), while the quantification
    still uses the dynamic chains.

    Robustness knobs (:mod:`repro.robust`):

    * ``fault_isolation`` — a failure quantifying one cutset no longer
      aborts the run; the degradation ladder
      (:mod:`repro.robust.ladder`) answers that cutset by the
      conservative §VIII bound instead, widening the result into a
      provable interval and recording every descent in the run-health
      report.
    * ``wall_seconds`` / ``max_total_states`` / ``budget_cutsets`` — a
      cooperative :class:`~repro.robust.budget.Budget`; running out
      yields a *partial* result whose interval is widened by a
      conservative bound on the unfinished work, never a crash.
    * ``checkpoint_path`` — snapshot MOCUS frontier state and quantified
      records to this file every ``checkpoint_interval_seconds``;
      ``resume=True`` restarts a killed run from the snapshot (a
      fingerprint mismatch raises
      :class:`~repro.errors.CheckpointError`).
    * ``verify`` — runtime self-verification (:mod:`repro.robust.verify`):
      ``"off"`` (default) does nothing; ``"cheap"`` asserts the invariant
      catalogue (probabilities in range, intervals ordered, per-cutset
      worst-case dominance) at every stage boundary; ``"full"``
      additionally runs the differential cross-checks of
      :mod:`repro.robust.crosscheck` (seeded re-quantification, the BDD
      oracle on small trees, ladder-rung bracketing).  A per-cutset
      violation degrades that cutset conservatively under
      ``fault_isolation`` (with a health event) and raises
      :class:`~repro.errors.InvariantViolation` otherwise; violations at
      stage boundaries always raise.  Verification never changes a
      clean run's records.
    * ``pool_task_timeout_seconds`` — per-task wall deadline on the
      process-pool farm (``jobs > 1``): a task running longer is
      terminated, its cutsets are recovered in the parent through the
      degradation path, and the event is recorded in the health report.

    Parallelism (:mod:`repro.perf`):

    * ``jobs`` — worker processes for the quantification phase.  ``1``
      (the default) solves every chain in-process; ``"auto"`` uses one
      worker per available CPU.  With more than one job the dynamic
      cutsets are grouped by structural model signature and each
      *unique* model is solved exactly once on a process pool
      (largest-estimated-chain first); the one quantification fold then
      walks the cutsets in order and takes those values in place of
      local solves — the analysis values are identical to a ``jobs=1``
      run, only wall-clock changes.  A task that fails in a worker
      leaves its cutsets to the fold's per-cutset path, which re-solves
      them in the parent through the usual degradation path.

    Persistent caching (:mod:`repro.perf.cache`):

    * ``cache_dir`` — directory of the on-disk solve cache.  ``None``
      (the library default) disables persistence entirely; the CLI
      defaults it to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``
      (``--no-cache`` opts out).  Three layers, all keyed by content
      fingerprints plus the value-affecting options: per-unique-model
      chain solves, the MOCUS cutset list, and the full record set of
      a clean run — so re-analysing an unchanged model is near-free
      and an unchanged submodel still reuses its solves.  Corrupted or
      version-mismatched entries degrade to cache misses, never
      crashes; cached values flow through the same verification guards
      as fresh ones; nothing is written while fault injection is armed
      or when the run was budgeted, checkpointed, resumed, truncated
      or degraded.  Hit/miss counts ride on the health report and the
      ``cache.*`` metrics.

    Pre-flight linting (:mod:`repro.lint`):

    * ``lint`` — run the static model linter before the pipeline.  A
      model with error-level diagnostics (e.g. a top gate that can
      never fail, or a cutoff guaranteed to empty the cutset list) is
      rejected with :class:`~repro.errors.LintError` *before* any
      translation, MOCUS or quantification work happens; warnings and
      infos ride on :attr:`~repro.core.results.AnalysisResult.lint`,
      appear in the run summary, and are noted in the run-health
      report.  The lint pass gets its own ``lint`` span in the trace.

    Semantic simplification (:mod:`repro.sem`):

    * ``simplify`` — run the BDD-verified rewrite engine over the model
      before translation and analyse the smaller equivalent model.
      Every applied rewrite round is proven equivalent (top scope and
      all trigger-gate scopes) within ``bdd_node_budget`` BDD nodes;
      rounds the proof cannot afford are reverted, so the option can
      shrink the work but never change the answer.  The stage gets its
      own ``simplify`` span, ``sem.*`` metrics, and a health note with
      the gate/event reduction.

    Observability (:mod:`repro.obs`):

    * ``trace_path`` — write a JSONL trace of the run (phase and
      per-solve spans, pool-task spans shipped back from workers, and
      the metric snapshot) to this file; summarise it with
      ``sdft trace FILE``.
    * ``collect_metrics`` — collect the pipeline metrics without
      writing a trace file; the snapshot rides on
      :attr:`~repro.core.results.AnalysisResult.metrics` and its
      highlights are rendered by the run summary.

    Either knob enables collection; both off (the default) costs
    nearly nothing (``tests/obs/test_overhead.py`` asserts ≤2%).  The
    collected quantities never influence analysis values, and the
    analysis-derived metrics are identical across ``jobs`` settings.
    """

    horizon: float = 24.0
    cutoff: float = 1e-15
    epsilon: float = 1e-12
    lint: bool = False
    simplify: bool = False
    max_chain_states: int = 200_000
    max_partials: int = 20_000_000
    mocus_probability_overrides: "dict[str, float] | None" = None
    fault_isolation: bool = False
    wall_seconds: float | None = None
    max_total_states: int | None = None
    budget_cutsets: int | None = None
    checkpoint_path: str | None = None
    checkpoint_interval_seconds: float = 30.0
    resume: bool = False
    verify: str = "off"
    jobs: "int | str" = 1
    pool_task_timeout_seconds: float | None = None
    trace_path: str | None = None
    collect_metrics: bool = False
    cache_dir: str | None = None
    bdd_node_budget: int = 200_000

    def __post_init__(self) -> None:
        """Reject invalid knob values before any work is done."""
        from repro.perf.pool import resolve_jobs

        resolve_mode(self.verify)
        resolve_jobs(self.jobs)
        check_horizon(self.horizon)
        timeout = self.pool_task_timeout_seconds
        ranges = (
            ("cutoff", self.cutoff >= 0.0, ">= 0"),
            ("epsilon", 0.0 < self.epsilon < 1.0, "in (0, 1)"),
            (
                "pool_task_timeout_seconds",
                timeout is None or timeout > 0.0,
                "> 0 or None",
            ),
        )
        for name, valid, expected in ranges:
            if not valid:
                raise ValueError(
                    f"{name} must be {expected}, got {getattr(self, name)!r}"
                )


@dataclass
class AnalysisReuse:
    """Work carried into and out of one :func:`analyze` run.

    The one reuse hook of the pipeline: an
    :class:`~repro.service.session.AnalysisSession` re-analysing an
    edited model, :func:`~repro.core.sensitivity.rate_sensitivity`
    analysing a perturbed one and :func:`analyze_curve` analysing one
    model at several horizons all re-run :func:`analyze` through it.
    It (a) injects work the caller already holds — a translation,
    cutsets proved equivalent to a fresh MOCUS search, a solve store,
    records an edit left valid — and (b) captures this run's artifacts
    for the caller's next step.  ``analyze(sdft)`` without a reuse hook
    is the unchanged one-shot pipeline; injected work never changes a
    computed value.  Callers inject only when :func:`reuse_applies`.

    Injected inputs
    ---------------
    ``translation`` — a pre-computed
    :class:`~repro.core.to_static.StaticTranslation` of *this* model at
    *this* horizon (the caller needs it to build or diff the cutset
    list; recomputing it would redo every worst-case chain solve).
    ``cutsets`` — a pre-computed :class:`MocusResult` substituted for
    the MOCUS stage (the caller vouches it is element-for-element what
    the search would return; see :mod:`repro.service.incremental`).
    ``solves`` — ``signature -> (probability, chain_states)`` entries
    priming the in-memory :class:`QuantificationCache`, so only cutsets
    whose ``FT_C`` content fingerprint changed are re-solved.  Both
    ``jobs`` settings consult the primed store before solving.
    ``records`` — ``cutset -> McsQuantification`` records of an earlier
    run that :func:`reusable_records` proved valid for this model.
    They are served through the same checked-restore path checkpoint
    resume uses — skipping even the ``FT_C`` model build — and
    re-validated against this run's invariants.

    Captured outputs (filled by :func:`analyze`)
    --------------------------------------------
    ``out_translation`` / ``out_mocus`` / ``out_solves`` — the
    translation, the cutset result and the full solve store of the run
    that just finished.
    """

    translation: "object | None" = None
    cutsets: "MocusResult | None" = None
    solves: "dict[tuple, tuple[float, int]] | None" = None
    records: "dict[frozenset, McsQuantification] | None" = None
    note: str = ""
    out_translation: "StaticTranslation | None" = None
    out_mocus: "MocusResult | None" = None
    out_solves: "dict[tuple, tuple[float, int]] | None" = None


def reuse_applies(opts: AnalysisOptions) -> bool:
    """Whether a run under ``opts`` may take caller-built artifacts.

    Simplification rewrites the model between the caller's view and the
    pipeline's, so an injected translation, cutset list or record would
    target the wrong tree; checkpoint and resume frames own the cutset
    list.  (A solve store is content-addressed and always applies.)
    """
    return not opts.simplify and not opts.resume and opts.checkpoint_path is None


def derived_run_options(opts: AnalysisOptions) -> AnalysisOptions:
    """``opts`` for the inner :func:`analyze` runs of a derived analysis.

    :func:`analyze_curve` and
    :func:`~repro.core.sensitivity.rate_sensitivity` run :func:`analyze`
    more than once under one caller's options.  The per-run outputs —
    ``trace_path``, ``checkpoint_path`` and ``resume`` — name files of
    one run, so they are dropped: forwarded, each inner run would
    overwrite the caller's trace or own its checkpoint.
    """
    return replace(opts, trace_path=None, checkpoint_path=None, resume=False)


def reusable_records(
    model: SdFaultTree,
    base: SdFaultTree,
    records: "Iterable[McsQuantification]",
) -> "dict[frozenset, McsQuantification]":
    """The ``records`` of an analysis of ``base`` still valid for ``model``.

    The one record-validity rule of the pipeline's callers.  A record's
    ``dependencies`` name every event whose content its value reads —
    the cutset's own events and every event its ``FT_C`` reads through
    a trigger gate.  With the gate/trigger skeleton unchanged and no
    changed event among them, re-quantifying would rebuild the
    identical ``FT_C`` and produce the identical value.  Only exact
    records qualify: skipped and ladder-bound records are products of
    one run's budget pressure or faults, which a fresh run would beat.
    Any structural edit invalidates every record.  Horizon, cutoff and
    solver options are the caller's to hold fixed between the two runs.
    """
    if _skeleton(model) != _skeleton(base):
        return {}
    dirty = _changed_events(model, base)
    return {
        record.cutset: record
        for record in records
        if record.rung == "exact"
        and record.dependencies
        and not dirty.intersection(record.dependencies)
    }


def _skeleton(model: SdFaultTree) -> tuple:
    """Everything record reuse requires to be *unchanged* except event
    content: the gate/trigger wiring and the static/dynamic partition.
    """
    return (
        model.top,
        frozenset(model.static_events),
        frozenset(model.dynamic_events),
        tuple(
            sorted(
                (name, gate.gate_type.value, gate.children, gate.k)
                for name, gate in model.structure.gates.items()
            )
        ),
        tuple(sorted((g, tuple(e)) for g, e in model.triggers.items())),
    )


def _changed_events(model: SdFaultTree, base: SdFaultTree) -> set[str]:
    """Events whose *content* differs between two same-skeleton models."""
    changed: set[str] = set()
    for name, event in model.static_events.items():
        if event.probability != base.static_events[name].probability:
            changed.add(name)
    for name, dyn in model.dynamic_events.items():
        if dyn.chain.fingerprint() != base.dynamic_events[name].chain.fingerprint():
            changed.add(name)
    return changed


def with_mocus_overrides(tree: "FaultTree", opts: AnalysisOptions) -> "FaultTree":
    """The tree MOCUS searches: ``tree`` under ``mocus_probability_overrides``.

    The paper's static cutoff — the cutset list is generated against the
    overridden probabilities while quantification keeps the dynamic
    chains (see :class:`AnalysisOptions`).
    """
    if not opts.mocus_probability_overrides:
        return tree
    return tree.with_probabilities(opts.mocus_probability_overrides)


def analyze(
    sdft: "SdFaultTree | FaultTree",
    options: AnalysisOptions | None = None,
    reuse: "AnalysisReuse | None" = None,
) -> AnalysisResult:
    """Run the full SD analysis and return an :class:`AnalysisResult`.

    A plain :class:`~repro.ft.tree.FaultTree` is analysed as the SD
    fault tree with no dynamic events (:func:`~repro.core.sdft.as_sdft`).

    With the robustness options of :class:`AnalysisOptions` the pipeline
    survives per-cutset solver failures (degradation ladder), resource
    exhaustion (cooperative budgets → partial results with conservative
    remainder bounds) and process kills (checkpoint/resume); everything
    that deviated from the clean path is enumerated in the result's
    :attr:`~repro.core.results.AnalysisResult.health` report.

    ``reuse`` is the reuse hook of sessions, sensitivity and curves —
    see :class:`AnalysisReuse`.  Supplying it bypasses the whole-result
    records cache (the point is to run the pipeline and capture its
    artifacts), but never changes any computed value.
    """
    run = _Run.start(as_sdft(sdft), options or AnalysisOptions(), reuse)
    _preflight_lint(run)
    _simplify_stage(run)
    _open_stores(run)
    with run.obs.tracer.span(
        "analyze",
        model=getattr(run.sdft, "name", None) or "",
        horizon=run.opts.horizon,
        cutoff=run.opts.cutoff,
        jobs=str(run.opts.jobs),
    ):
        _translate(run)
        _cutsets(run)
        _quantify(run)
        _serve(run)
        _verify(run)
        _persist(run)
    return _finish(run)


# ----------------------------------------------------------------------
# The run context
# ----------------------------------------------------------------------


@dataclass
class _Run:
    """One :func:`analyze` call: services fixed before the first stage,
    then each stage's outputs."""

    sdft: SdFaultTree
    opts: AnalysisOptions
    reuse: "AnalysisReuse | None"
    obs: Observability
    budget: "Budget | None"
    health: HealthLog
    verifier: Verifier
    manager: "CheckpointManager | None" = None
    resumed: "dict | None" = None
    solve_cache: "SolveCache | None" = None
    #: The problem's content fingerprint (checkpoint and records keys).
    fingerprint: str = ""
    #: No budget and no checkpoint: the run may use the cutset and
    #: records layers of the persistent cache.
    unconstrained: bool = False
    #: Fault injection is armed: every stage must run for real.
    armed: bool = False
    #: A decoded records-layer payload that answers this run.
    stored: "dict | None" = None
    lint: "LintReport | None" = None
    translation: "StaticTranslation | None" = None
    mocus_tree: "FaultTree | None" = None
    mocus: "MocusResult | None" = None
    cutsets: list = field(default_factory=list)
    restored: dict = field(default_factory=dict)
    classification: "ClassificationReport | None" = None
    records: list = field(default_factory=list)
    cache: QuantificationCache = field(default_factory=QuantificationCache)
    perf: "PerfStats | None" = None
    record_sum: float = 0.0
    total: float = 0.0
    method: str = "mcs-rare-event"
    bdd_info: dict = field(default_factory=dict)
    static_bound: float = 0.0
    #: Wall seconds of translate, cutset generation and quantification.
    seconds: list = field(default_factory=lambda: [0.0, 0.0, 0.0])

    @classmethod
    def start(
        cls,
        sdft: SdFaultTree,
        opts: AnalysisOptions,
        reuse: "AnalysisReuse | None",
    ) -> "_Run":
        obs = Observability.from_options(opts.trace_path, opts.collect_metrics)
        health = HealthLog()
        verifier = Verifier(
            opts.verify,
            health=health,
            metrics=obs.metrics if obs.enabled else None,
            # The per-chain truncation error compounds into every
            # quantified value, so the float slack must dominate a
            # coarse epsilon.
            tolerance=max(1e-9, 100.0 * opts.epsilon),
        )
        # A cooperative budget only when some axis is limited.
        limits = (opts.wall_seconds, opts.max_total_states, opts.budget_cutsets)
        budget = None
        if any(limit is not None for limit in limits):
            budget = Budget(*limits, metrics=obs.metrics)
        return cls(sdft, opts, reuse, obs, budget, health, verifier)

    @property
    def truncated(self) -> bool:
        return self.mocus is not None and self.mocus.truncated

    @property
    def remainder(self) -> float:
        return self.mocus.remainder_bound if self.mocus is not None else 0.0


def _open_stores(run: _Run) -> None:
    """Open the checkpoint (with its resume payload) and the disk cache.

    Runs after simplification, so both fingerprint the model actually
    analysed.  The records-layer lookup happens here too: a hit decides
    whether the translate stage has any work to do.
    """
    from repro.robust.checkpoint import CheckpointManager, model_fingerprint

    opts = run.opts
    if opts.checkpoint_path or opts.cache_dir:
        run.fingerprint = model_fingerprint(run.sdft, opts.horizon, opts.cutoff)
    if opts.checkpoint_path:
        run.manager = CheckpointManager(
            opts.checkpoint_path,
            run.fingerprint,
            opts.checkpoint_interval_seconds,
        )
        if opts.resume:
            run.resumed = run.manager.load()
            if run.resumed is not None:
                run.health.info(
                    "checkpoint",
                    f"resumed from {opts.checkpoint_path} "
                    f"(phase {run.resumed['phase']!r})",
                )
    if opts.cache_dir:
        from repro.perf.cache import SolveCache

        run.solve_cache = SolveCache(opts.cache_dir)
    run.unconstrained = run.budget is None and run.manager is None
    run.armed = faults.any_armed()
    if (
        run.solve_cache is not None
        and run.unconstrained
        and not run.armed
        and run.reuse is None
        and opts.verify != "full"
    ):
        run.stored = _load_stored(run)


def _load_stored(run: _Run) -> "dict | None":
    """The decoded records-layer payload of this run, or ``None``.

    The values are not trusted here: every record passes the fold's per-record
    guards and the served total the run-scope ones, as fresh work does.
    """
    from repro.robust.checkpoint import record_from_dict

    payload = run.solve_cache.get_records(
        run.fingerprint, _records_options_key(run.opts)
    )
    if payload is None:
        return None
    try:
        dedup = payload.get("dedup", {})
        stored = {
            "records": [record_from_dict(raw) for raw in payload["records"]],
            "static_bound": float(payload["static_bound"]),
            "hits": int(dedup.get("hits", 0)),
            "misses": int(dedup.get("misses", 0)),
            # A BDD total is the one served value the records cannot
            # reproduce; any other method is re-derived from them.
            "bdd": None,
        }
        if payload.get("method") == "bdd-exact":
            stored["bdd"] = float(payload["total"]), dict(payload["bdd"])
    except (KeyError, TypeError, ValueError):
        # A malformed payload is a miss, never a failed analysis.
        run.solve_cache.errors += 1
        return None
    run.health.info(
        "cache",
        f"full-result hit: {len(stored['records'])} records restored "
        f"(mocus and solves skipped)",
    )
    return stored


def _records_options_key(opts: AnalysisOptions) -> tuple:
    """Everything value-affecting beyond the model/horizon/cutoff.

    ``jobs``, tracing, verification mode and checkpoint knobs are
    deliberately absent: the determinism contract says they never change
    analysis values, so a result computed under any of them answers all
    of them.  (Budgeted or checkpointed runs are not *stored* at all —
    see :func:`_persist`.)
    """
    overrides = None
    if opts.mocus_probability_overrides:
        overrides = tuple(
            sorted(
                (name, repr(value))
                for name, value in opts.mocus_probability_overrides.items()
            )
        )
    return (
        repr(opts.epsilon),
        opts.max_chain_states,
        opts.max_partials,
        overrides,
        opts.fault_isolation,
        opts.bdd_node_budget,
        opts.simplify,
    )


# ----------------------------------------------------------------------
# Stages, in pipeline order
# ----------------------------------------------------------------------


def _preflight_lint(run: _Run) -> None:
    """Run the model linter before the pipeline (``opts.lint``).

    Error-level findings reject the model with
    :class:`~repro.errors.LintError` before translate/MOCUS/quantify do
    any work — the trace (when requested) is still written, containing
    the ``lint`` span and *no* phase spans.  Warnings become run-health
    notes and the report rides on the result.
    """
    opts, obs, sdft = run.opts, run.obs, run.sdft
    if not opts.lint:
        return
    from repro.errors import LintError
    from repro.lint import LintConfig
    from repro.lint import lint as run_lint

    with obs.tracer.span(
        "lint", model=getattr(sdft, "name", None) or ""
    ) as lint_span:
        report = run_lint(
            sdft, LintConfig(horizon=opts.horizon, cutoff=opts.cutoff)
        )
        counts = report.counts()
        lint_span.set(
            errors=counts["error"],
            warnings=counts["warning"],
            infos=counts["info"],
        )
    for finding in report.warnings:
        run.health.info(
            "lint", f"{finding.code} {finding.node}: {finding.message}"
        )
    if report.has_errors:
        if opts.trace_path:
            _write_trace(run, rejected_by_lint=True)
        details = "; ".join(
            f"{d.code} {d.node}: {d.message}" for d in report.errors
        )
        raise LintError(
            f"model rejected by lint with {len(report.errors)} error-level "
            f"diagnostic(s): {details}",
            report=report,
        )
    run.lint = report


def _simplify_stage(run: _Run) -> None:
    """Shrink the model through the verified rewrite engine (``opts.simplify``).

    Runs after the pre-flight lint (findings should name the user's
    nodes, not the dieted survivors) and before the checkpoint opens, so
    checkpoints and the solve cache fingerprint the model actually
    analysed.  Soundness rests on :func:`repro.sem.simplify`'s per-round
    BDD proofs: an unverifiable round is reverted inside the engine, so
    whatever comes back is equivalent to the input on the top scope and
    every trigger-gate scope.
    """
    if not run.opts.simplify:
        return
    from repro.sem import simplify as run_simplify

    obs, health = run.obs, run.health
    with obs.tracer.span(
        "simplify", model=getattr(run.sdft, "name", None) or ""
    ) as span:
        result = run_simplify(run.sdft, node_budget=run.opts.bdd_node_budget)
        span.set(
            rewrites=len(result.rewrites),
            gates_before=result.gates_before,
            gates_after=result.gates_after,
            verified_scopes=result.verified_scopes,
            budget_hit=result.budget_hit,
        )
    if obs.enabled:
        obs.metrics.count("sem.rewrites", len(result.rewrites))
        obs.metrics.count("sem.removed_gates", result.removed_gates)
        obs.metrics.count("sem.removed_events", result.removed_events)
        obs.metrics.count("sem.verified_scopes", result.verified_scopes)
        if result.budget_hit:
            obs.metrics.count("sem.budget_trips")
    if result.changed:
        health.info(
            "simplify",
            f"verified diet: {result.gates_before} -> {result.gates_after} "
            f"gates, {result.events_before} -> {result.events_after} events "
            f"({len(result.rewrites)} rewrites, {result.verified_scopes} "
            f"scopes BDD-verified)",
        )
    if result.budget_hit:
        health.info(
            "simplify",
            "BDD node budget tripped during verification; unverified "
            "rewrites were discarded",
        )
    assert isinstance(result.model, SdFaultTree)
    run.sdft = result.model


def _translate(run: _Run) -> None:
    """Build ``FT̄`` with worst-case probabilities for the dynamic events.

    A records-layer hit needs the translation only for the per-record
    worst-case dominance guard (P4), so an unverified hit skips it.
    """
    if run.stored is not None and not run.verifier.enabled:
        return
    started = time.perf_counter()
    with run.obs.tracer.span("translate"):
        if run.reuse is not None and run.reuse.translation is not None:
            run.translation = run.reuse.translation
        else:
            run.translation = to_static(run.sdft, run.opts.horizon)
        run.mocus_tree = with_mocus_overrides(run.translation.tree, run.opts)
    run.seconds[0] = time.perf_counter() - started


def _cutsets(run: _Run) -> None:
    """Fix the cutset list and build the one restore map.

    Earlier records — a records-layer hit, the session's untouched
    records, a quantify-phase checkpoint's (which win: they belong to
    this run's frame) — all reach the fold through
    :meth:`_QuantifyContext.checked`.
    """
    from repro.robust.checkpoint import record_from_dict

    started = time.perf_counter()
    restored: dict = {}
    if run.stored is not None:
        run.cutsets = [record.cutset for record in run.stored["records"]]
        restored.update(zip(run.cutsets, run.stored["records"]))
    else:
        with run.obs.tracer.span("mocus") as span:
            run.mocus = _search(run)
            span.set(
                cutsets=len(run.mocus.cutsets), truncated=run.mocus.truncated
            )
        run.cutsets = list(run.mocus.cutsets)
        if run.mocus.truncated:
            run.health.budget(
                "mocus",
                f"cutset generation truncated after {len(run.cutsets)} "
                f"cutsets; un-enumerated mass bounded by "
                f"{run.mocus.remainder_bound:.3e}",
            )
    if run.reuse is not None and run.reuse.records:
        restored.update(run.reuse.records)
    if run.resumed is not None and run.resumed["phase"] == "quantify":
        checkpointed = map(record_from_dict, run.resumed["state"]["records"])
        restored.update((record.cutset, record) for record in checkpointed)
    run.restored = restored
    run.seconds[1] = time.perf_counter() - started


def _search(run: _Run) -> MocusResult:
    """Run (or restore) cutset generation, surviving budget exhaustion.

    With a persistent cache, an unconstrained run first consults the
    MOCUS layer: the cache stores the *pre-truncation* minimal cutsets
    of a completed search keyed by a content digest of the static tree,
    and the loading process re-sorts and re-truncates locally — so a
    warm list is element-for-element what this process's own search
    would have produced.
    """
    opts, tree, manager, resumed = (
        run.opts, run.mocus_tree, run.manager, run.resumed
    )
    phase = resumed["phase"] if resumed is not None else None
    if run.reuse is not None and run.reuse.cutsets is not None:
        # The session already produced (and vouches for) the cutsets of
        # this tree; skip the search entirely.
        run.health.info("service", run.reuse.note or "cutsets supplied by session")
        return run.reuse.cutsets
    if phase == "quantify":
        state = resumed["state"]
        return MocusResult.from_family(
            state["cutsets"],
            tree,
            opts.cutoff,
            truncated=state.get("mcs_truncated", False),
            remainder_bound=state.get("mcs_remainder_bound", 0.0),
        )

    digest = None
    if run.solve_cache is not None and run.unconstrained:
        from repro.perf.cache import tree_digest

        digest = tree_digest(tree)
        names = None
        if not run.armed:
            names = run.solve_cache.get_mocus(
                digest, opts.cutoff, opts.max_partials
            )
        if names is not None:
            result = MocusResult.from_family(names, tree, opts.cutoff)
            run.health.info(
                "cache",
                f"mocus: {len(result.cutsets)} cutsets restored (search skipped)",
            )
            return result

    on_progress = None
    if manager is not None:
        on_progress = lambda build: manager.maybe_save(  # noqa: E731
            "mocus", lambda: {"mocus": build()}
        )
    try:
        result = mocus(
            tree,
            MocusOptions(cutoff=opts.cutoff, max_partials=opts.max_partials),
            budget=run.budget,
            on_progress=on_progress,
            resume=resumed["state"]["mocus"] if phase == "mocus" else None,
            metrics=run.obs.metrics if run.obs.enabled else None,
        )
    except BudgetExceededError as error:
        if error.partial is None:
            raise
        result = error.partial.result
        # Persist the frontier: a resumed run with a fresh budget can
        # continue the search instead of redoing it.
        if manager is not None:
            manager.save("mocus", {"mocus": error.partial.frontier})
    if digest is not None and not result.truncated:
        run.solve_cache.put_mocus(
            digest,
            opts.cutoff,
            opts.max_partials,
            [list(cutset) for cutset in result.full_cutsets],
        )
    return result


def _quantify(run: _Run) -> None:
    """Quantify every cutset in one fold, in cutset order.

    A restored record passes :meth:`_QuantifyContext.checked`; any other
    cutset takes :meth:`_QuantifyContext.quantify`, whatever ``jobs`` is
    — a :class:`_Farm` only pre-fills pool-solved values it consumes.
    """
    from repro.perf.pool import resolve_jobs

    started = time.perf_counter()
    opts, manager, records = run.opts, run.manager, run.records
    n_jobs = resolve_jobs(opts.jobs)
    cache = run.cache
    cache.persistent = run.solve_cache
    if run.stored is not None:
        # The stored run's dedup counters: its records re-solve nothing.
        cache.hits, cache.misses = run.stored["hits"], run.stored["misses"]
    if run.reuse is not None and run.reuse.solves:
        cache._store.update(run.reuse.solves)
    run.classification = classification_report(run.sdft)
    ctx = _QuantifyContext(run, run.classification.by_gate)

    def state() -> dict:
        from repro.robust.checkpoint import record_to_dict

        return {
            "cutsets": [sorted(c) for c in run.cutsets],
            "records": [record_to_dict(r) for r in records],
            "mcs_truncated": run.truncated,
            "mcs_remainder_bound": run.remainder,
        }

    with run.obs.tracer.span("quantify") as span:
        if manager is not None:
            # Phase transition: from here on the cutset list is fixed.
            manager.save("quantify", state())
        farm = _Farm(ctx, n_jobs) if n_jobs > 1 else None
        for index, cutset in enumerate(run.cutsets):
            reused = run.restored.get(cutset)
            if reused is not None:
                records.append(ctx.checked(reused))
                continue
            model = farm.model(index) if farm is not None else None
            records.append(ctx.quantify(cutset, model))
            if manager is not None:
                manager.maybe_save("quantify", state)
        worker_faults = farm.finish() if farm is not None else 0
        span.set(
            records=len(records),
            dedup_hits=cache.hits,
            dedup_misses=cache.misses,
        )
    dynamic_solves = cache.hits + cache.misses
    run.perf = PerfStats(
        jobs=n_jobs,
        dynamic_solves=dynamic_solves,
        unique_models_solved=cache.misses,
        dedup_ratio=cache.hits / dynamic_solves if dynamic_solves else 0.0,
        worker_faults=worker_faults,
    )
    run.seconds[2] += time.perf_counter() - started


def _serve(run: _Run) -> None:
    """The served top probability, its method label and the static bound."""
    started = time.perf_counter()
    run.record_sum = sum(
        r.probability for r in run.records if r.probability > run.opts.cutoff
    )
    run.total, run.method, run.bdd_info = _select_served_total(run)
    if run.stored is not None:
        static_bound = run.stored["static_bound"]
    else:
        static_bound, estimator = run.mocus.cutsets.sound_estimate()
        if estimator != "rare-event":
            run.health.info(
                "quantify",
                f"static worst-case rare-event sum overshoots 1.0; "
                f"min-cut upper bound {static_bound:.6e} reported",
            )
    # The quantified total can exceed the static MCUB (the records sum
    # first-order); keep the bound a bound.
    run.static_bound = max(static_bound, run.total)
    run.seconds[2] += time.perf_counter() - started


def _select_served_total(run: _Run) -> tuple[float, str, dict]:
    """The served top probability, its method label, and BDD stats.

    A static model quantifies exactly via the module-wise BDD
    compilation of :mod:`repro.bdd.quantify` (consulting the persistent
    bdd cache layer first); the node budget tripping falls back — with
    a health note — to the cutset path.  A records-layer hit replays the stored choice:
    its BDD value, or the cutset path without a second BDD attempt.  The
    cutset path serves the rare-event record sum while it is a
    probability and the min-cut upper bound over the record values once
    the sum overshoots 1.0, labelling which estimator answered.
    """
    opts, health, stored = run.opts, run.health, run.stored
    if stored is not None and stored["bdd"] is not None:
        total, info = stored["bdd"]
        return total, "bdd-exact", info
    sdft = run.sdft
    static = not sdft.dynamic_events and not sdft.triggers
    if stored is None and static:
        try:
            return _bdd_quantification(run)
        except BddBudgetExceeded as error:
            health.info(
                "bdd",
                f"static BDD engine abandoned ({error}); falling back to "
                f"cutset quantification",
            )
            if run.obs.enabled:
                run.obs.metrics.count("bdd.budget_trips")
    if run.record_sum > 1.0:
        mcub = _record_min_cut_upper_bound(run.records, opts.cutoff)
        health.info(
            "quantify",
            f"rare-event sum {run.record_sum:.6e} overshoots 1.0; serving the "
            f"min-cut upper bound {mcub:.6e} instead (method mcs-min-cut-ub)",
        )
        return mcub, "mcs-min-cut-ub", {}
    return run.record_sum, "mcs-rare-event", {}


def _bdd_quantification(run: _Run) -> tuple[float, str, dict]:
    """One exact BDD quantification (cache-aware), as a served total."""
    from repro.bdd.quantify import quantify_static_tree

    static_tree, budget, disk = (
        run.translation.tree, run.opts.bdd_node_budget, run.solve_cache
    )
    digest = warm = None
    if disk is not None:
        from repro.perf.cache import tree_digest

        digest = tree_digest(static_tree)
        if not run.armed:
            warm = disk.get_bdd(digest, budget)
    if warm is not None:
        probability, nodes, ordering, modules = warm
        note = (
            f"exact static quantification restored from cache "
            f"({nodes} nodes, order {ordering})"
        )
    else:
        with run.obs.tracer.span("bdd", events=len(static_tree.events)) as span:
            exact = quantify_static_tree(static_tree, node_budget=budget)
            probability, nodes, ordering, modules = (
                exact.probability, exact.node_count, exact.ordering, exact.n_modules
            )
            span.set(nodes=nodes, ordering=ordering, modules=modules)
        if digest is not None:
            disk.put_bdd(digest, budget, probability, nodes, ordering, modules)
        note = (
            f"static engine: exact BDD quantification ({nodes} nodes, "
            f"order {ordering}, {modules} modules)"
        )
    run.health.info("bdd", note)
    if run.obs.enabled:
        run.obs.metrics.observe("bdd.nodes", nodes)
        run.obs.metrics.count(f"bdd.order.{ordering}")
    return probability, "bdd-exact", {
        "nodes": nodes, "ordering": ordering, "modules": modules
    }


def _record_min_cut_upper_bound(
    records: "list[McsQuantification]", cutoff: float
) -> float:
    """The MCUB ``1 - prod(1 - p̃(C))`` over the quantified records.

    The sound substitute served when the rare-event sum overshoots 1.0:
    still an upper bound for coherent trees (each ``p̃(C)`` is the
    probability of *some* failing scenario set, and the product bounds
    the probability that none occurs as if they were independent), and
    by construction never above 1.  Uses ``log1p`` to stay accurate when
    the per-record probabilities are small but numerous.
    """
    import math

    log_complement = 0.0
    for record in records:
        p = record.probability
        if p <= cutoff:
            continue
        if p >= 1.0:
            return 1.0
        log_complement += math.log1p(-p)
    return -math.expm1(log_complement)


def _verify(run: _Run) -> None:
    """End-of-run invariant checks (P1/P3 at run scope).

    The *served* total must be a genuine probability (P1 now rejects any
    value above 1.0 — the rare-event overshoot can no longer be served);
    the raw record sum is checked only for finiteness/sign, since it
    legitimately exceeds one.  The interval check mirrors
    :func:`repro.core.results.served_interval` so the pipeline verifies
    exactly the bracket it later reports.  In ``full`` mode the
    differential cross-checks run too.  Raises
    :class:`~repro.errors.InvariantViolation` on failure: a run-scope
    violation means the whole result is suspect, so no degradation path
    applies.
    """
    verifier, opts = run.verifier, run.opts
    if not verifier.enabled:
        return
    with run.obs.tracer.span("verify", mode=verifier.mode):
        verifier.check_value(run.remainder, "MOCUS remainder bound")
        verifier.check_value(run.record_sum, "rare-event record sum")
        verifier.check_probability(
            run.total, f"served failure probability ({run.method})"
        )
        lower, upper = served_interval(
            run.records, run.total, run.method, opts.cutoff, run.remainder
        )
        verifier.check_interval(
            lower, run.total, upper, "failure probability interval"
        )
        if verifier.full:
            from repro.robust.crosscheck import run_crosschecks

            run_crosschecks(
                run.sdft,
                run.mocus_tree,
                run.mocus,
                run.records,
                opts,
                run.health,
                metrics=run.obs.metrics if run.obs.enabled else None,
            )
    run.health.info("verify", verifier.summary())


def _persist(run: _Run) -> None:
    """Hand this run's work to later runs: the session hook, the records layer.

    Only a pristine, newly computed run is stored: unbudgeted,
    uncheckpointed, not truncated, and with a clean health report (no
    degradations, retries or warnings — a degraded record set would be
    served to later runs that might not degrade at all).  Fault-armed
    processes never write (enforced inside the cache).
    """
    reuse = run.reuse
    if reuse is not None:
        reuse.out_translation = run.translation
        reuse.out_mocus = run.mocus
        reuse.out_solves = dict(run.cache._store)
    if (
        run.solve_cache is None
        or run.stored is not None
        or not run.unconstrained
        or run.truncated
        or not run.health.freeze().is_clean
    ):
        return
    from repro.robust.checkpoint import record_to_dict

    perf = run.perf
    run.solve_cache.put_records(
        run.fingerprint,
        _records_options_key(run.opts),
        {
            "records": [record_to_dict(r) for r in run.records],
            "static_bound": run.static_bound,
            "dedup": {
                "hits": run.cache.hits,
                "misses": run.cache.misses,
                "dynamic_solves": perf.dynamic_solves,
                "unique_models_solved": perf.unique_models_solved,
                "dedup_ratio": perf.dedup_ratio,
            },
            "method": run.method,
            "total": run.total,
            "bdd": run.bdd_info,
        },
    )


def _finish(run: _Run) -> AnalysisResult:
    """Close the run's stores, write the trace, and build the result."""
    opts, obs, health, cache = run.opts, run.obs, run.health, run.cache
    if run.solve_cache is not None:
        health.info("cache", run.solve_cache.summary())
        if obs.enabled:
            for name, value in run.solve_cache.stats().items():
                if value:
                    obs.metrics.count(f"cache.{name}", value)
        run.solve_cache.close()

    if obs.enabled:
        # The dedup counters come from the shared cache totals (not the
        # per-lookup call sites), which is what keeps them identical
        # across jobs=1/N — the same property PerfStats relies on.
        obs.metrics.count("quantify.dedup_hits", cache.hits)
        obs.metrics.count("quantify.dedup_misses", cache.misses)
    if opts.trace_path:
        n_lines = _write_trace(run, jobs=str(opts.jobs))
        health.info(
            "obs", f"trace written to {opts.trace_path} ({n_lines} lines)"
        )

    if run.manager is not None:
        run.manager.clear()

    return AnalysisResult(
        failure_probability=run.total,
        static_bound=run.static_bound,
        horizon=opts.horizon,
        cutoff=opts.cutoff,
        records=tuple(run.records),
        timings=Timings(*run.seconds),
        classification=run.classification,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
        health=health.freeze(),
        mcs_truncated=run.truncated,
        mcs_remainder_bound=run.remainder,
        perf=run.perf,
        metrics=obs.metrics.snapshot() if obs.enabled else None,
        lint=run.lint,
        method=run.method,
        rare_event_sum=run.record_sum,
        bdd_nodes=int(run.bdd_info.get("nodes", 0)),
        bdd_ordering=str(run.bdd_info.get("ordering", "")),
        bdd_modules=int(run.bdd_info.get("modules", 0)),
    )


def _write_trace(run: _Run, **attrs: object) -> int:
    """Write the run's trace and metric snapshot to ``opts.trace_path``."""
    from repro.obs.export import write_trace

    opts, obs = run.opts, run.obs
    return write_trace(
        opts.trace_path,
        obs.tracer.records(),
        obs.metrics.snapshot() if obs.enabled else None,
        attrs={
            "model": getattr(run.sdft, "name", None) or "",
            "horizon": opts.horizon,
            "cutoff": opts.cutoff,
            **attrs,
        },
    )


# ----------------------------------------------------------------------
# Quantification: the per-cutset path and the pool pre-fill
# ----------------------------------------------------------------------


@dataclass
class _QuantifyContext:
    """The per-cutset policy of the quantification fold.

    :meth:`quantify` answers a cutset no earlier record answers;
    :meth:`checked` guards fresh and restored records alike.
    """

    run: _Run
    classes: dict
    out_of_budget: bool = False

    def quantify(
        self, cutset: frozenset, model: "CutsetModel | None" = None
    ) -> McsQuantification:
        """One cutset through the per-cutset path (budget, solve, recover).

        ``model`` is the cutset's ``FT_C`` when the caller already built
        it; ``None`` builds it here.
        """
        run, health = self.run, self.run.health
        if not self.out_of_budget and run.budget is not None and run.budget.expired():
            health.budget(
                "quantify",
                "wall-clock budget exhausted; remaining cutsets carry "
                "their conservative static worst-case bound",
            )
            self.out_of_budget = True
        if self.out_of_budget:
            return self._skipped(cutset)
        try:
            return self.checked(self._solve(cutset, model))
        except BudgetExceededError as error:
            health.budget("quantify", str(error), cutset=cutset)
            self.out_of_budget = True
            return self._skipped(cutset)
        except (NumericalError, AnalysisError) as error:
            if not run.opts.fault_isolation:
                raise
            health.degradation(
                "quantify",
                f"every ladder rung failed ({error}); static worst-case "
                f"bound substituted",
                cutset=cutset,
                rung="skipped",
            )
            return self._skipped(cutset)

    def checked(self, record: McsQuantification) -> McsQuantification:
        """Apply the per-record invariants (``opts.verify``) to a record.

        A clean record (or any record with verification off) passes
        through untouched.  A violating record either raises
        :class:`~repro.errors.InvariantViolation` or — under fault
        isolation — is replaced by the conservative skipped record, with
        a health event naming the violated invariant.  Skipped records
        are exempt: they *are* the conservative substitute.
        """
        run = self.run
        if not run.verifier.enabled or record.rung == "skipped":
            return record
        violation = run.verifier.record_violation(
            record, self._worst_case(record.cutset)
        )
        if violation is None:
            return record
        if not run.opts.fault_isolation:
            raise InvariantViolation(violation)
        run.health.degradation(
            "verify",
            f"invariant violation: {violation}; static worst-case bound "
            f"substituted",
            cutset=record.cutset,
            rung="skipped",
        )
        return self._skipped(record.cutset)

    def _solve(
        self, cutset: frozenset, model: "CutsetModel | None"
    ) -> McsQuantification:
        """Quantify one cutset, through the ladder when isolation is on."""
        run = self.run
        opts, health = run.opts, run.health
        if opts.fault_isolation:
            from repro.robust.ladder import quantify_with_ladder

            outcome = quantify_with_ladder(
                run.sdft,
                cutset,
                opts.horizon,
                classes=self.classes,
                cache=run.cache,
                epsilon=opts.epsilon,
                max_chain_states=opts.max_chain_states,
                budget=run.budget,
                obs=run.obs if run.obs.enabled else None,
                model=model,
            )
            for attempt in outcome.attempts:
                health.retry(
                    "quantify",
                    f"rung failed: {attempt.error}",
                    cutset=cutset,
                    rung=attempt.rung,
                )
            if outcome.degraded:
                health.degradation(
                    "quantify",
                    "fallback value substituted",
                    cutset=cutset,
                    rung=outcome.rung,
                )
            return outcome.record
        if model is None:
            model = build_cutset_model(run.sdft, cutset, self.classes)
        return quantify_model(
            model,
            opts.horizon,
            run.cache,
            opts.epsilon,
            opts.max_chain_states,
            run.budget,
            run.obs,
        )

    def _worst_case(self, cutset: frozenset) -> float:
        """The static worst-case ``p̄(C)`` — inequality (1)'s upper bound.

        Computed from the *translation* tree (never the MOCUS override
        probabilities), so it soundly dominates ``p̃(C)``; multiplied in
        :func:`~repro.ft.cutsets.cutset_probability`'s sorted order, so
        the value does not depend on the set's hash order.
        """
        events = self.run.translation.tree.events
        return cutset_probability(
            cutset, {name: events[name].probability for name in cutset}
        )

    def _skipped(self, cutset: frozenset) -> McsQuantification:
        """A conservative placeholder carrying the static worst case."""
        n_dynamic = sum(1 for name in cutset if self.run.sdft.is_dynamic(name))
        return McsQuantification(
            cutset,
            self._worst_case(cutset),
            n_dynamic > 0,
            n_dynamic,
            n_dynamic,
            0,
            0,
            0.0,
            bounded=True,
            lower_bound=0.0,
            rung="skipped",
        )


class _Farm:
    """The ``jobs > 1`` pre-fill: one pool solve per unique ``FT_C`` signature.

    Builds every unrestored cutset's ``FT_C`` up front and submits one
    task per signature neither memory nor disk can answer.  :meth:`model`
    pulls results as the fold reaches them and pre-fills accepted values,
    which :func:`~repro.core.quantify.quantify_model` takes in place of a
    local solve.  A failed task or rejected value pre-fills nothing: the
    per-cutset path re-solves those cutsets as a ``jobs=1`` run would.
    """

    def __init__(self, ctx: _QuantifyContext, n_jobs: int) -> None:
        from repro.perf.pool import SolveTask, fork_available, warm_farm
        from repro.perf.schedule import estimate_chain_states

        run = ctx.run
        opts, budget, cache = run.opts, run.budget, run.cache
        self.run = run
        self.knobs = (opts.epsilon, opts.max_chain_states)
        self.models: dict[int, CutsetModel] = {}
        self.keys: dict[int, tuple] = {}
        self.worker_faults = 0
        # The first-seen model of each signature, in first-seen order.
        unique: dict[tuple, CutsetModel] = {}
        for index, cutset in enumerate(run.cutsets):
            if cutset in run.restored:
                continue
            try:
                model = build_cutset_model(run.sdft, cutset, ctx.classes)
            except (NumericalError, AnalysisError):
                # The per-cutset path rebuilds it and reproduces the
                # failure — and its health events — exactly.
                continue
            self.models[index] = model
            if model.model is not None and not model.trivially_zero:
                self.keys[index] = cache.signature(model.model, opts.horizon)
                unique.setdefault(self.keys[index], model)
        self.groups = list(unique.items())
        pending = [
            (task_id, key, model)
            for task_id, (key, model) in enumerate(self.groups)
            if key not in cache and cache.solved(key, self.knobs) is None
        ]
        self.waiting = {key for _, key, _ in pending}
        wall_allowance = state_allowance = None
        if budget is not None:
            wall_allowance = budget.remaining_seconds()
            if budget.max_total_states is not None:
                state_allowance = max(
                    0, budget.max_total_states - budget.states_charged
                )
        # With fork available, workers inherit the deduped model table
        # from the parent's memory and tasks carry just an index — no
        # per-task model pickling.  Without fork, models ship inline.
        use_table = fork_available()
        tasks = [
            SolveTask(
                task_id=task_id,
                model=None if use_table else model.model,
                horizon=opts.horizon,
                epsilon=opts.epsilon,
                max_chain_states=opts.max_chain_states,
                cutset=tuple(sorted(model.cutset)),
                wall_allowance=wall_allowance,
                state_allowance=state_allowance,
                estimated_states=estimate_chain_states(model.model),
                collect_obs=run.obs.enabled,
                submitted_at=time.time() if run.obs.enabled else None,
                model_index=index if use_table else -1,
            )
            for index, (task_id, _, model) in enumerate(pending)
        ]
        self.farm: "SolverFarm | None" = None
        self.results = iter(())
        if tasks:
            self.farm = warm_farm(
                n_jobs, task_timeout=opts.pool_task_timeout_seconds
            )
            if use_table:
                self.farm.set_model_table(
                    [model.model for _, _, model in pending],
                    tuple(key for _, key, _ in pending),
                )
            self.results = self.farm.run_batched(tasks)

    def model(self, index: int) -> "CutsetModel | None":
        """Cutset ``index``'s plan-built model, once its solve has landed."""
        key = self.keys.get(index)
        while key in self.waiting:
            result = next(self.results, None)
            if result is None:
                break
            self._absorb(result)
        return self.models.get(index)

    def finish(self) -> int:
        """Drain the farm, surface its events; the worker-fault count."""
        for result in self.results:
            self._absorb(result)
        obs = self.run.obs
        if self.farm is not None:
            _surface_farm_events(self.farm, self.run.health, obs)
            if obs.enabled and self.farm.batch_sizes:
                obs.metrics.count("pool.batches", len(self.farm.batch_sizes))
                for size in self.farm.batch_sizes:
                    obs.metrics.observe("pool.batch_size", size)
        return self.worker_faults

    def _absorb(self, result: "SolveResult") -> None:
        """Pre-fill one landed solve, unless it failed or is implausible."""
        run = self.run
        key, model = self.groups[result.task_id]
        self.waiting.discard(key)
        if run.obs.enabled:
            _merge_worker_obs(run.obs, result)
        if not result.ok:
            self.worker_faults += 1
            return
        cutset = model.cutset
        violation = run.verifier.value_violation(
            result.probability,
            f"pool-solved probability for {'+'.join(sorted(cutset))}",
        )
        if violation is not None:
            # The pool shipped an impossible value: do not poison the
            # cache; the parent solves this signature itself.
            run.health.warning(
                "verify", f"{violation}; re-solving in the parent", cutset=cutset
            )
            return
        run.cache.prefill(
            key,
            self.knobs,
            result.probability,
            result.chain_states,
            result.solve_seconds,
        )


def _surface_farm_events(
    farm: "SolverFarm", health: HealthLog, obs: Observability
) -> None:
    """Turn the farm's recovery actions into health entries and metrics.

    Pool rebuilds and watchdog timeouts are operational facts about
    *this* run's environment — they appear in the health report as
    ``pool`` warnings (so a crash-scarred run is never indistinguishable
    from a clean one) but never change analysis values: the affected
    cutsets were re-answered through the in-process path.
    """
    for event in farm.events:
        cutset = frozenset(event.cutset) if event.cutset else None
        health.warning("pool", event.message, cutset=cutset)
        if obs.enabled:
            obs.metrics.count(
                "pool.timeouts" if event.kind == "timeout" else "pool.rebuilds"
            )


def _merge_worker_obs(obs: Observability, result: "SolveResult") -> None:
    """Graft one worker's trace slice and metrics into the parent's.

    Worker span ids are prefixed per task, so grafting cannot collide;
    the shipped roots are re-parented under the currently open span
    (the ``quantify`` phase).  The ``pool.*`` quantities are timing
    metrics — informative, never part of the cross-``jobs`` determinism
    guarantee (the analysis-derived ``transient.*`` counters shipped in
    ``result.metrics`` are).
    """
    if result.spans:
        obs.tracer.add_foreign(result.spans, parent_id=obs.tracer.current_id)
    if result.metrics:
        obs.metrics.merge_snapshot(result.metrics)
    obs.metrics.count("pool.tasks")
    if not result.ok:
        obs.metrics.count("pool.worker_faults")
    obs.metrics.observe("pool.queue_wait_seconds", result.queue_wait_seconds)
    if result.ok:
        obs.metrics.observe("pool.task_solve_seconds", result.solve_seconds)


def analyze_curve(
    sdft: SdFaultTree,
    horizons: "list[float] | tuple[float, ...]",
    options: AnalysisOptions | None = None,
) -> dict[float, float]:
    """Failure probability as a function of the mission time.

    Each point is what :func:`analyze` serves at that horizon — same
    verification, served method and MCUB rules — for a cutset
    list shared across horizons: MOCUS runs once, at the widest
    horizon, where the worst-case probabilities (monotone in ``t``) are
    largest, so its family holds every cutset above the cutoff at any
    requested horizon.  Every other horizon re-truncates that family
    over its own translation and re-runs :func:`analyze` through
    :class:`AnalysisReuse`.  ``options`` apply to every point except
    the per-run outputs (see :func:`derived_run_options`).
    """
    if not horizons:
        return {}
    for horizon in horizons:
        check_horizon(horizon)
    opts = derived_run_options(options or AnalysisOptions())
    *narrower, widest = sorted(set(horizons))
    shared = AnalysisReuse()
    curve = {
        widest: analyze(
            sdft, replace(opts, horizon=widest), reuse=shared
        ).failure_probability
    }
    family = None
    if reuse_applies(opts) and not shared.out_mocus.truncated:
        family = shared.out_mocus.full_cutsets
    for horizon in narrower:
        point = replace(opts, horizon=horizon)
        reuse = None
        if family is not None:
            translation = to_static(sdft, horizon)
            reuse = AnalysisReuse(
                translation=translation,
                cutsets=MocusResult.from_family(
                    family,
                    with_mocus_overrides(translation.tree, point),
                    opts.cutoff,
                ),
            )
        curve[horizon] = analyze(sdft, point, reuse=reuse).failure_probability
    return dict(sorted(curve.items()))


def analyze_exact(
    sdft: SdFaultTree,
    horizon: float,
    max_states: int = 200_000,
    epsilon: float = 1e-12,
) -> float:
    """Exact ``Pr[Reach^{<=t}(F)]`` via the full product chain.

    Exponential in the number of basic events — the baseline the paper's
    decomposition replaces.  Use only on small trees (or let
    ``max_states`` raise).
    """
    from repro.ctmc.product import build_product
    from repro.ctmc.transient import reach_probability

    check_horizon(horizon)
    product = build_product(sdft, max_states=max_states)
    return reach_probability(product.chain, horizon, epsilon=epsilon)


def analyze_static(
    sdft: SdFaultTree,
    options: AnalysisOptions | None = None,
) -> float:
    """The "no timing" baseline: analyse the tree as purely static.

    Every dynamic event is frozen at its worst-case (triggered at time
    zero, never untriggered) failure probability over the horizon and
    triggers become AND gates — this mirrors what a static tool computes
    from a conventional model where every component runs from time zero
    and timing interdependencies are ignored.
    """
    opts = options or AnalysisOptions()
    translation = to_static(sdft, opts.horizon)
    mocus_options = MocusOptions(cutoff=opts.cutoff, max_partials=opts.max_partials)
    return mocus(translation.tree, mocus_options).cutsets.rare_event()
