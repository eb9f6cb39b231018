"""Differential cross-checks: compute key quantities twice, independently.

Invariant guards (:mod:`repro.robust.verify`) catch values that are
*impossible*; this module catches values that are merely *wrong*.  In
``verify="full"`` mode the analyzer re-derives a sample of its own
answers through independent code paths and fails loudly — with
:class:`~repro.errors.CrosscheckError` — when the two derivations
disagree beyond floating-point slack.  The same cross-method-agreement
idea rare-event Monte-Carlo DFT estimators lean on to trust their
numbers, applied to the pipeline's own internals:

1. **Re-quantification** — a seeded sample of exactly-quantified
   dynamic cutsets is re-solved in-process with a fresh cache and
   compared against the recorded value.  This is the check that
   catches a corrupted pool result, a poisoned cache entry, or a
   fold bug: a pool run and a ``jobs=1`` run promise bit-identical
   values, so any disagreement is a defect, not noise.
2. **BDD oracle** — the *exact* top probability from the BDD engine
   (:mod:`repro.bdd`) must sit inside the bracket the cutset path
   promises — ``largest single cutset <= exact <= rare-event sum`` —
   and the analysis cutset list must be a subset of the exact minimal
   cutsets (with every exact cutset above the cutoff present when the
   list was not budget-truncated).  Since the BDD became the
   production static engine this check runs *both ways*: it validates
   MOCUS against the BDD and the BDD against MOCUS on every model the
   node budget can compile — there is no event-count ceiling.
3. **Ladder-rung bracketing** — for sampled cutsets, the interval the
   ``bound`` rung would report must bracket the exact rung's value:
   the two ladder rungs agree, so a degraded answer elsewhere in the
   run is trustworthy.
4. **Rare-event statistical agreement** — a sampled exactly-quantified
   cutset is re-estimated through the rare-event Monte-Carlo engine
   (:mod:`repro.ctmc.rare`) and the uniformization value must fall
   inside the estimator's N-sigma interval.  Uniformization and the
   trajectory sampler share no numerics — this is the check that keeps
   validating the *dynamic* path the static BDD oracle cannot see,
   exactly the cross-method validation rare-event DFT tools use on
   themselves.

Checks are deterministic (the sample seed derives from the model name
and record count), side-effect free on results, and skip — with a
health note, never silently — when a precondition does not hold
(tree too large for the BDD oracle, re-solve fails under an armed
fault, nothing to sample).
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import AnalysisError, CrosscheckError, NumericalError

if TYPE_CHECKING:
    from repro.core.analyzer import AnalysisOptions
    from repro.core.quantify import McsQuantification
    from repro.core.sdft import SdFaultTree
    from repro.ft.mocus import MocusResult
    from repro.ft.tree import FaultTree
    from repro.obs.metrics import MetricsRegistry, NullMetrics
    from repro.robust.health import HealthLog

__all__ = ["CrosscheckSummary", "run_crosschecks"]

#: How many records the re-quantification pass re-solves.
RECHECK_SAMPLE = 5

#: How many records the ladder-rung bracket check covers.
BRACKET_SAMPLE = 3

#: Cap on the number of exact minimal cutsets the oracle materialises
#: as explicit sets (counted on the minimal-solutions BDD *before*
#: enumeration, so an explosive family skips cleanly instead of eating
#: memory).  The probability bracket still runs above the cap.
BDD_ORACLE_MAX_CUTSETS = 200_000

#: Relative agreement required between two solves of the same model.
RECHECK_RTOL = 1e-8

#: How many records the rare-event statistical check re-estimates.
MC_SAMPLE = 1

#: Acceptance band of the statistical check, in standard errors.  Wide
#: enough that a healthy estimator disagrees with probability < 1e-6;
#: a corrupted likelihood ratio overshoots it by orders of magnitude.
MC_SIGMAS = 5.0

#: Cap on the trajectories the statistical check spends per cutset.
MC_MAX_RUNS = 4_000

#: Offset mixed with a stable hash of each sampled cutset into its seed.
MC_SEED = 0


@dataclass(frozen=True)
class CrosscheckSummary:
    """What the differential pass actually covered (for the health log)."""

    rechecked: int = 0
    bdd_checked: bool = False
    bracketed: int = 0
    skipped: tuple[str, ...] = ()
    mc_checked: int = 0

    def message(self) -> str:
        parts = [
            f"{self.rechecked} cutsets re-quantified",
            f"BDD oracle {'checked' if self.bdd_checked else 'skipped'}",
            f"{self.bracketed} ladder brackets verified",
            f"{self.mc_checked} rare-event estimates cross-checked",
        ]
        if self.skipped:
            parts.append(f"skipped: {'; '.join(self.skipped)}")
        return "crosscheck: " + ", ".join(parts)


def run_crosschecks(
    sdft: "SdFaultTree",
    mocus_tree: "FaultTree",
    mocus_result: "MocusResult",
    records: "Sequence[McsQuantification]",
    opts: "AnalysisOptions",
    health: "HealthLog",
    metrics: "MetricsRegistry | NullMetrics | None" = None,
) -> CrosscheckSummary:
    """Run every differential check; raise :class:`CrosscheckError` on disagreement.

    Called by the analyzer at the end of the quantification phase when
    ``verify="full"``.  Never mutates ``records``.  ``metrics``
    optionally receives the ``mc.*`` counters of the statistical check's
    rare-event runs.
    """
    rng = random.Random(
        zlib.crc32(
            f"{getattr(sdft, 'name', '')}\x00{len(records)}".encode()
        )
    )
    skipped: list[str] = []
    rechecked = _recheck_sample(sdft, records, opts, rng, skipped)
    bdd_checked = _bdd_oracle(mocus_tree, mocus_result, opts, skipped)
    bracketed = _bracket_sample(sdft, records, opts, rng, skipped)
    mc_checked = _rare_event_sample(sdft, records, opts, rng, skipped, metrics)
    summary = CrosscheckSummary(
        rechecked, bdd_checked, bracketed, tuple(skipped), mc_checked
    )
    health.info("verify", summary.message())
    return summary


# ----------------------------------------------------------------------
# 1. Re-quantification of a seeded sample
# ----------------------------------------------------------------------


def _exact_candidates(
    records: "Sequence[McsQuantification]",
) -> "list[McsQuantification]":
    return [
        r
        for r in records
        if r.is_dynamic
        and not r.bounded
        and not r.trivially_zero
        and r.rung == "exact"
    ]


def _recheck_sample(
    sdft: "SdFaultTree",
    records: "Sequence[McsQuantification]",
    opts: "AnalysisOptions",
    rng: random.Random,
    skipped: list[str],
) -> int:
    from repro.core.classify import classification_report
    from repro.core.quantify import QuantificationCache, quantify_cutset

    candidates = _exact_candidates(records)
    if not candidates:
        skipped.append("recheck: no exactly-quantified dynamic cutsets")
        return 0
    sample = rng.sample(candidates, min(RECHECK_SAMPLE, len(candidates)))
    classes = classification_report(sdft).by_gate
    checked = 0
    for record in sample:
        try:
            again = quantify_cutset(
                sdft,
                record.cutset,
                opts.horizon,
                classes=classes,
                cache=QuantificationCache(),
                epsilon=opts.epsilon,
                max_chain_states=opts.max_chain_states,
            )
        except (NumericalError, AnalysisError) as error:
            # The re-solve itself failed (e.g. an armed fault is still
            # tripping) — that is a *skip*, not a disagreement; the
            # original record already went through its own recovery.
            skipped.append(
                f"recheck of {'+'.join(sorted(record.cutset))} failed: {error}"
            )
            continue
        if not math.isclose(
            again.probability,
            record.probability,
            rel_tol=RECHECK_RTOL,
            abs_tol=1e-300,
        ):
            raise CrosscheckError(
                f"re-quantification disagrees for cutset "
                f"{'+'.join(sorted(record.cutset))}: recorded "
                f"{record.probability!r}, recomputed {again.probability!r}"
            )
        checked += 1
    return checked


# ----------------------------------------------------------------------
# 2. BDD oracle against the exact minimal cutsets
# ----------------------------------------------------------------------


def _bdd_oracle(
    mocus_tree: "FaultTree",
    mocus_result: "MocusResult",
    opts: "AnalysisOptions",
    skipped: list[str],
) -> bool:
    """Differential check between the cutset path and the exact BDD.

    Compiles the static tree under the run's node budget (the only
    skip condition besides an unsupported structure — no event-count
    gate) and asserts the full soundness bracket:

    * ``largest single analysis cutset <= exact <= rare-event sum``
      over the exact MCS family — the bracket the served estimators
      (rare-event, min-cut UB) rely on;
    * the analysis cutset list is a subset of the exact minimal
      cutsets (MOCUS produced no spurious set);
    * every exact cutset above the cutoff appears in the analysis list
      when the search was not budget-truncated (MOCUS lost nothing the
      cutoff promised to keep).

    When the exact family is too large to materialise (counted on the
    minimal-solutions BDD first), the family comparisons are skipped
    with a note but the probability floor still runs.
    """
    from repro.bdd import compile_tree
    from repro.errors import BddBudgetExceeded
    from repro.ft.cutsets import cutset_probability

    try:
        compiled = compile_tree(mocus_tree, node_budget=opts.bdd_node_budget)
        exact_p = compiled.probability()
    except BddBudgetExceeded as error:
        skipped.append(f"BDD oracle: node budget tripped ({error})")
        return False
    except Exception as error:  # unsupported structure — skip, don't fail
        skipped.append(f"BDD oracle: compile failed ({error})")
        return False

    probabilities = {
        name: event.probability for name, event in mocus_tree.events.items()
    }
    analysis_sets = set(mocus_result.cutsets)
    slack = 1e-9 * max(1.0, exact_p)
    largest_analysis = max(
        (cutset_probability(c, probabilities) for c in analysis_sets),
        default=0.0,
    )
    if largest_analysis > exact_p + slack:
        raise CrosscheckError(
            f"the most likely analysis cutset ({largest_analysis!r}) exceeds "
            f"the exact BDD probability {exact_p!r} — a single cutset's "
            f"probability is a lower bound, so one of the two engines is wrong"
        )

    minsol_root = compiled.manager.minsol(compiled.root)
    n_exact = compiled.manager.count_paths(minsol_root)
    if n_exact > BDD_ORACLE_MAX_CUTSETS:
        skipped.append(
            f"BDD oracle: {n_exact} exact minimal cutsets "
            f"(> {BDD_ORACLE_MAX_CUTSETS}); family comparison skipped, "
            f"probability floor checked"
        )
        return True

    # Enumerates the minsol root just counted (memoised on the manager).
    exact_family = compiled.minimal_cutsets()
    exact_sets = set(exact_family)
    full_sum = exact_family.rare_event()
    if exact_p > full_sum + 1e-9 * max(1.0, full_sum):
        raise CrosscheckError(
            f"exact BDD probability {exact_p!r} exceeds its own MCS "
            f"rare-event sum {full_sum!r} — the union bound is violated, "
            f"so the BDD engine or the MCS extraction is wrong"
        )
    if not analysis_sets <= exact_sets:
        spurious = analysis_sets - exact_sets
        raise CrosscheckError(
            f"the analysis cutset list contains {len(spurious)} cutsets "
            f"the exact BDD engine does not recognise as minimal"
        )
    if not mocus_result.truncated:
        cutoff = opts.cutoff * (1.0 + 1e-9)
        lost = [
            c
            for c in exact_sets - analysis_sets
            if cutset_probability(c, probabilities) > cutoff
        ]
        if lost:
            raise CrosscheckError(
                f"MOCUS lost {len(lost)} minimal cutsets above the cutoff "
                f"{opts.cutoff!r} that the exact BDD engine finds "
                f"(e.g. {'+'.join(sorted(lost[0]))})"
            )
    return True


# ----------------------------------------------------------------------
# 3. The two ladder rungs bracket each other
# ----------------------------------------------------------------------


def _bracket_sample(
    sdft: "SdFaultTree",
    records: "Sequence[McsQuantification]",
    opts: "AnalysisOptions",
    rng: random.Random,
    skipped: list[str],
) -> int:
    from repro.core.classify import classification_report
    from repro.core.cutset_model import build_cutset_model
    from repro.core.quantify import bound_record

    candidates = _exact_candidates(records)
    if not candidates:
        skipped.append("bracket: no exactly-quantified dynamic cutsets")
        return 0
    sample = rng.sample(candidates, min(BRACKET_SAMPLE, len(candidates)))
    classes = classification_report(sdft).by_gate
    checked = 0
    for record in sample:
        try:
            model = build_cutset_model(sdft, record.cutset, classes)
            bound = bound_record(model, opts.horizon, opts.epsilon)
        except (NumericalError, AnalysisError) as error:
            skipped.append(
                f"bracket of {'+'.join(sorted(record.cutset))} failed: {error}"
            )
            continue
        lower = bound.lower_bound if bound.lower_bound is not None else 0.0
        slack = 1e-9 * max(1.0, bound.probability)
        if not (lower - slack <= record.probability <= bound.probability + slack):
            raise CrosscheckError(
                f"ladder rungs disagree for cutset "
                f"{'+'.join(sorted(record.cutset))}: exact value "
                f"{record.probability!r} outside the bound rung's interval "
                f"[{lower!r}, {bound.probability!r}]"
            )
        checked += 1
    return checked


# ----------------------------------------------------------------------
# 4. Rare-event Monte-Carlo agrees with uniformization
# ----------------------------------------------------------------------


def _rare_event_sample(
    sdft: "SdFaultTree",
    records: "Sequence[McsQuantification]",
    opts: "AnalysisOptions",
    rng: random.Random,
    skipped: list[str],
    metrics: "MetricsRegistry | NullMetrics | None",
) -> int:
    """Statistically re-estimate sampled exact records via simulation.

    The recorded (uniformization) value must land inside the rare-event
    estimator's ``MC_SIGMAS``-standard-error interval.  Unlike the BDD
    oracle this check has no size ceiling: the trajectory sampler never
    builds the product space, so it keeps validating at the scale the
    paper targets.
    """
    from repro.core.classify import classification_report
    from repro.core.cutset_model import build_cutset_model
    from repro.ctmc.rare import estimate_failure_probability

    candidates = _exact_candidates(records)
    if not candidates:
        skipped.append("mc: no exactly-quantified dynamic cutsets")
        return 0
    sample = rng.sample(candidates, min(MC_SAMPLE, len(candidates)))
    classes = classification_report(sdft).by_gate
    checked = 0
    for record in sample:
        name = "+".join(sorted(record.cutset))
        try:
            model = build_cutset_model(sdft, record.cutset, classes)
        except (NumericalError, AnalysisError) as error:
            skipped.append(f"mc check of {name} failed: {error}")
            continue
        if model.model is None or model.trivially_zero:
            skipped.append(f"mc check of {name}: nothing dynamic to simulate")
            continue
        if model.static_factor <= 0.0:
            skipped.append(f"mc check of {name}: zero static factor")
            continue
        # The record's value is the dynamic reach probability times the
        # static factor; the simulator only sees the dynamic part.
        dynamic_exact = record.probability / model.static_factor
        seed = (MC_SEED + zlib.crc32(f"crosscheck\x00{name}".encode())) % 2**32
        try:
            result = estimate_failure_probability(
                model.model,
                opts.horizon,
                max_runs=MC_MAX_RUNS,
                seed=seed,
                metrics=metrics,
            )
        except (NumericalError, AnalysisError) as error:
            skipped.append(f"mc check of {name} failed: {error}")
            continue
        lower, upper = result.interval(sigmas=MC_SIGMAS)
        if not (lower <= dynamic_exact <= upper):
            raise CrosscheckError(
                f"rare-event estimate disagrees for cutset {name}: "
                f"uniformization value {dynamic_exact!r} outside the "
                f"{result.engine} estimator's {MC_SIGMAS:g}-sigma interval "
                f"[{lower!r}, {upper!r}] (estimate {result.estimate!r}, "
                f"achieved rel. error {result.achieved_rel_error:.3g} "
                f"over {result.n_runs} runs)"
            )
        checked += 1
    return checked
