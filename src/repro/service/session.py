"""Resumable analysis sessions with an incremental what-if engine.

An :class:`AnalysisSession` owns a model, its options, and the
artifacts of the previous run (translation, cutset family, per-module
families, the fingerprint-keyed solve store).  The lifecycle:

``analyze()``
    A full pipeline run that *captures* artifacts.  With a deadline it
    returns a sound partial bracket (cooperative budget); if the
    options name a checkpoint path, an interrupted run can be continued
    with :meth:`resume`.

``edit(...)``
    Apply :mod:`repro.service.edits` operations, producing a new
    immutable model; previous artifacts are kept — they are what makes
    the next run incremental.

``reanalyze()``
    Re-run the analysis reusing everything whose content fingerprint
    is unchanged: module cutset families are compiled once per module
    structure and recomposed under the new probabilities
    (:mod:`repro.service.incremental`), and only cutsets whose ``FT_C``
    model signature changed are re-solved (the previous solve store is
    primed into the quantification cache).  ``crosscheck=True``
    additionally runs a cold from-scratch analysis and proves the two
    agree on every semantic field, raising
    :class:`~repro.errors.CrosscheckError` otherwise.

Bit-identity here means the *semantic* fields: the failure probability,
the served method, the interval, and per-record ``(cutset, probability,
chain_states, bounded, lower_bound, ...)``.  Provenance annotations
(``cache_hit``, ``solve_seconds``, ``rung`` of cache-served records)
legitimately differ between warm and cold runs — exactly as they
already do between a cache-on and a cache-off run of the one-shot
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.analyzer import (
    AnalysisOptions,
    AnalysisReuse,
    analyze,
    reusable_records,
    reuse_applies,
    with_mocus_overrides,
)
from repro.core.quantify import McsQuantification
from repro.core.results import AnalysisResult
from repro.core.sdft import SdFaultTree
from repro.core.to_static import to_static
from repro.errors import CrosscheckError, ServiceError
from repro.ft.mocus import MocusOptions, MocusResult
from repro.robust.checkpoint import model_fingerprint
from repro.service.edits import Edit, apply_edits
from repro.service.incremental import FamilyCache, incremental_cutsets

__all__ = ["AnalysisSession", "EditReport", "assert_bit_identical"]

#: Record fields compared for bit-identity (provenance fields —
#: ``cache_hit``, ``solve_seconds``, and ``rung`` — are excluded: a
#: cache-served record reports how it was *obtained*, not a different
#: value).
_SEMANTIC_FIELDS = (
    "cutset",
    "probability",
    "is_dynamic",
    "n_dynamic_in_cutset",
    "n_dynamic_in_model",
    "n_added_dynamic",
    "chain_states",
    "trivially_zero",
    "bounded",
    "lower_bound",
)


@dataclass(frozen=True)
class EditReport:
    """What an :meth:`AnalysisSession.edit` call changed."""

    edits: tuple[Edit, ...]
    fingerprint_before: str
    fingerprint_after: str

    @property
    def changed(self) -> bool:
        return self.fingerprint_before != self.fingerprint_after


def assert_bit_identical(
    incremental: AnalysisResult, cold: AnalysisResult
) -> None:
    """Raise :class:`CrosscheckError` unless the two results agree.

    Compares every semantic field exactly (``==`` on floats, no
    tolerance: the incremental contract is bit-identity, not closeness).
    """
    if incremental.failure_probability != cold.failure_probability:
        raise CrosscheckError(
            f"incremental probability {incremental.failure_probability!r} "
            f"!= cold {cold.failure_probability!r}"
        )
    if incremental.method != cold.method:
        raise CrosscheckError(
            f"incremental method {incremental.method!r} != cold "
            f"{cold.method!r}"
        )
    if incremental.static_bound != cold.static_bound:
        raise CrosscheckError(
            f"incremental static bound {incremental.static_bound!r} != "
            f"cold {cold.static_bound!r}"
        )
    warm_interval = incremental.failure_probability_interval()
    cold_interval = cold.failure_probability_interval()
    if warm_interval != cold_interval:
        raise CrosscheckError(
            f"incremental interval {warm_interval!r} != cold "
            f"{cold_interval!r}"
        )
    if len(incremental.records) != len(cold.records):
        raise CrosscheckError(
            f"incremental produced {len(incremental.records)} records, "
            f"cold produced {len(cold.records)}"
        )
    for left, right in zip(incremental.records, cold.records):
        for name in _SEMANTIC_FIELDS:
            a, b = getattr(left, name), getattr(right, name)
            if a != b:
                raise CrosscheckError(
                    f"record {'+'.join(sorted(left.cutset))}: field "
                    f"{name} differs (incremental {a!r}, cold {b!r})"
                )


@dataclass
class _RunArtifacts:
    """What the previous run left behind for the next one."""

    tree: "object | None"  # translation tree used for MOCUS
    family: tuple[tuple[str, ...], ...]
    solves: dict[tuple, tuple[float, int]]
    #: The SD model those records quantified (the record-validity base).
    sdft: SdFaultTree
    records: tuple[McsQuantification, ...]


class AnalysisSession:
    """A long-lived analysis of one (evolving) model.

    Thread-unsafe by design — the daemon serialises requests per
    session.  The warm solver farm is process-global
    (:func:`repro.perf.pool.warm_farm`); the session merely drives runs
    through it via ``options.jobs``.
    """

    def __init__(
        self,
        model: SdFaultTree,
        options: AnalysisOptions | None = None,
    ) -> None:
        self.model = model
        self.options = options or AnalysisOptions()
        self.families = FamilyCache()
        self.runs = 0
        self.incremental_runs = 0
        self.last_mode: str = ""
        self.last_result: AnalysisResult | None = None
        self._previous: _RunArtifacts | None = None

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the *current* model + analysis frame."""
        return model_fingerprint(
            self.model, self.options.horizon, self.options.cutoff
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def analyze(
        self, deadline_seconds: float | None = None
    ) -> AnalysisResult:
        """A full pipeline run, capturing artifacts for later reuse."""
        opts = self._run_options(deadline_seconds)
        reuse = AnalysisReuse(solves=self._primed_solves())
        result = analyze(self.model, opts, reuse=reuse)
        self._remember(reuse, result, mode="full")
        return result

    def resume(self, deadline_seconds: float | None = None) -> AnalysisResult:
        """Continue an interrupted run from its checkpoint.

        Requires ``options.checkpoint_path``; a fingerprint mismatch
        (the model was edited since the checkpoint) raises
        :class:`~repro.errors.CheckpointError` from the pipeline.
        """
        if self.options.checkpoint_path is None:
            raise ServiceError(
                "resume() needs options.checkpoint_path; the session was "
                "not configured for checkpointing"
            )
        opts = replace(self._run_options(deadline_seconds), resume=True)
        reuse = AnalysisReuse(solves=self._primed_solves())
        result = analyze(self.model, opts, reuse=reuse)
        self._remember(reuse, result, mode="resume")
        return result

    def edit(self, *edits: Edit) -> EditReport:
        """Apply edits, producing the session's new current model.

        Previous-run artifacts are deliberately retained: content
        fingerprints, not session bookkeeping, decide what is reusable.
        """
        if not edits:
            raise ServiceError("edit() called with no edits")
        before = self.fingerprint
        self.model = apply_edits(self.model, list(edits))
        return EditReport(tuple(edits), before, self.fingerprint)

    def reanalyze(
        self,
        deadline_seconds: float | None = None,
        crosscheck: bool = False,
    ) -> AnalysisResult:
        """Re-run the analysis, reusing fingerprint-unchanged work.

        Falls back to a cold run — never a wrong answer — when no
        incremental strategy applies.  With ``crosscheck=True`` a full
        from-scratch run is performed as well and compared field by
        field (:func:`assert_bit_identical`).
        """
        opts = self._run_options(deadline_seconds)
        reuse = AnalysisReuse(solves=self._primed_solves())
        mode = "full"
        if reuse_applies(opts):
            translation = to_static(self.model, opts.horizon)
            previous = self._previous
            found = incremental_cutsets(
                with_mocus_overrides(translation.tree, opts),
                MocusOptions(
                    cutoff=opts.cutoff, max_partials=opts.max_partials
                ),
                self.families,
                previous_tree=previous.tree if previous else None,
                previous_family=previous.family if previous else (),
                node_budget=opts.bdd_node_budget,
            )
            reuse.translation = translation
            if found is not None:
                mocus_result, stats = found
                reuse.cutsets = mocus_result
                reuse.note = stats.summary()
                mode = stats.mode
            if previous is not None:
                reuse.records = reusable_records(
                    self.model, previous.sdft, previous.records
                )
        result = analyze(self.model, opts, reuse=reuse)
        self._remember(reuse, result, mode=mode)
        if mode != "full":
            self.incremental_runs += 1
        if crosscheck:
            cold = analyze(self.model, opts, reuse=AnalysisReuse())
            assert_bit_identical(result, cold)
        return result

    def stats(self) -> dict:
        """Session counters for the service ``stats`` operation."""
        return {
            "fingerprint": self.fingerprint,
            "runs": self.runs,
            "incremental_runs": self.incremental_runs,
            "last_mode": self.last_mode,
            "module_families": len(self.families),
            "family_hits": self.families.hits,
            "family_misses": self.families.misses,
            "solve_store": (
                len(self._previous.solves) if self._previous else 0
            ),
        }

    def close(self) -> None:
        """Drop retained artifacts (the session stays usable cold)."""
        self._previous = None
        self.last_result = None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _run_options(
        self, deadline_seconds: float | None
    ) -> AnalysisOptions:
        """Per-request options: a deadline becomes a cooperative budget.

        The deadline run gets ``fault_isolation`` (partial work must
        degrade per cutset, not abort) and at least ``verify="cheap"``
        so the served bracket is invariant-checked (P3) before it goes
        out.
        """
        opts = self.options
        if deadline_seconds is None:
            return opts
        verify = opts.verify if opts.verify != "off" else "cheap"
        return replace(
            opts,
            wall_seconds=deadline_seconds,
            fault_isolation=True,
            verify=verify,
        )

    def _primed_solves(self) -> dict | None:
        if self._previous is None or not self._previous.solves:
            return None
        return dict(self._previous.solves)

    def _remember(
        self, reuse: AnalysisReuse, result: AnalysisResult, mode: str
    ) -> None:
        self.runs += 1
        self.last_mode = mode
        self.last_result = result
        solves: dict[tuple, tuple[float, int]] = {}
        if self._previous is not None:
            # Accumulate: signature-keyed values never go stale, and an
            # edit that is later reverted hits the old entries again.
            solves.update(self._previous.solves)
        if reuse.out_solves:
            solves.update(reuse.out_solves)
        tree = None
        family: tuple[tuple[str, ...], ...] = ()
        mocus_result: MocusResult | None = reuse.out_mocus
        if (
            mocus_result is not None
            and not mocus_result.truncated
            and not result.mcs_truncated
        ):
            family = mocus_result.full_cutsets
            translation = reuse.out_translation
            if translation is not None:
                tree = with_mocus_overrides(translation.tree, self.options)
        # Records do not accumulate across edits (unlike the solve
        # store): validity is decided against the one model the records
        # came from (:func:`reusable_records`), so only the latest
        # complete list is kept.
        if tree is not None or solves or result.records:
            self._previous = _RunArtifacts(
                tree=tree,
                family=family,
                solves=solves,
                sdft=self.model,
                records=result.records,
            )
