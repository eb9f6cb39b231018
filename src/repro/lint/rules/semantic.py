"""Semantic rules (SD5xx): what the model *means*, proved by BDDs.

The SD1xx–SD4xx rules judge shape — reachability, numbers, wiring.
These rules judge the denoted structure function and the trigger
semantics, via :mod:`repro.sem`: order-sensitive trigger races the
builder's acyclicity check cannot rule out, operands that contribute
nothing to their gate (verified by BDD identity, not pattern matching),
events outside the top function's support, interval bounds that refute
the rare-event approximation before anything is solved, and the
equivalence-checked diet preview.

Every BDD-backed fact is budget-guarded through
:data:`~repro.lint.config.SEM_NODE_BUDGET`: on overrun the context
properties return ``None`` and the rules silently skip — lint never
raises.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.config import RARE_EVENT_THRESHOLD
from repro.lint.context import LintContext
from repro.lint.diagnostic import Diagnostic, Severity
from repro.lint.registry import rule

__all__: list[str] = []


@rule(
    "SD501",
    "trigger-order-race",
    Severity.WARNING,
    "Two triggers can fire at one instant and the order is observable.",
)
def check_trigger_races(ctx: LintContext) -> Iterator[Diagnostic]:
    for race in ctx.trigger_report.races:
        yield Diagnostic(
            "SD501",
            Severity.WARNING,
            race.first,
            race.describe(),
            path=ctx.path_to(race.first),
            hint="decouple the gates' supports, give the switched chain "
            "a non-failed switch-on state, or document the intended "
            "update order",
        )


@rule(
    "SD502",
    "instant-failure-on-trigger",
    Severity.INFO,
    "A triggered event can be failed the moment it is switched on.",
)
def check_instant_failure(ctx: LintContext) -> Iterator[Diagnostic]:
    for event in ctx.trigger_report.instant_failure_events:
        gate = ctx.sdft.trigger_of[event]
        yield Diagnostic(
            "SD502",
            Severity.INFO,
            event,
            f"switching on (by trigger gate {gate!r}) can land the chain "
            f"directly in a failed state: the event fails with zero "
            f"delay at the triggering instant",
            path=ctx.path_to(event),
            hint="intended for cold-start failures; otherwise route the "
            "switch-on into a working on-state",
        )


@rule(
    "SD503",
    "vacuous-operand",
    Severity.WARNING,
    "Removing the operand leaves the gate's function BDD-identical.",
)
def check_vacuous_operands(ctx: LintContext) -> Iterator[Diagnostic]:
    report = ctx.logic
    if report is None:
        return
    for finding in report.vacuous:
        if finding.operand in ctx.sem_constants:
            continue  # a constant operand is SD202/SD203's finding
        if finding.operand in report.constant_gates:
            continue  # a constant gate is SD105/SD106's finding
        yield Diagnostic(
            "SD503",
            Severity.WARNING,
            finding.gate,
            f"operand {finding.operand!r} does not change the gate's "
            f"structure function (absorbed by or implied within the "
            f"remaining operands; verified by BDD equivalence)",
            path=ctx.path_to(finding.gate),
            hint="drop the operand, or run `sdft simplify` to apply "
            "every verified reduction at once",
        )


@rule(
    "SD504",
    "absorbed-event",
    Severity.WARNING,
    "Reachable event outside the support of the top structure function.",
)
def check_absorbed_events(ctx: LintContext) -> Iterator[Diagnostic]:
    report = ctx.logic
    if report is None:
        return
    for event in report.dead_events:
        yield Diagnostic(
            "SD504",
            Severity.WARNING,
            event,
            "the event is wired into the tree but the top structure "
            "function does not depend on it: no failure combination "
            "involving it can change the top event",
            path=ctx.path_to(event),
            hint="the event is dead weight for this top gate; remove it "
            "or check the gates that were meant to propagate it",
        )


@rule(
    "SD505",
    "bounds-refute-rare-event",
    Severity.WARNING,
    "The interval lower bound already breaks the rare-event regime.",
)
def check_bounds_refute_rare_event(ctx: LintContext) -> Iterator[Diagnostic]:
    threshold = RARE_EVENT_THRESHOLD
    bound = ctx.bounds.top
    if bound.lo <= threshold:
        return
    for name in ctx.sdft.all_event_names:
        worst = ctx.worst_case(name)
        if worst is not None and worst > threshold:
            return  # a single event breaks the regime: SD201's finding
    yield Diagnostic(
        "SD505",
        Severity.WARNING,
        ctx.tree.top,
        f"interval analysis proves the top-event probability is at "
        f"least {bound.lo:.3g} (bracket [{bound.lo:.3g}, {bound.hi:.3g}]) "
        f"— above the rare-event threshold {threshold:g} even though no "
        f"single event exceeds it; the breach is emergent from the "
        f"structure and a rare-event cutset sum will over-count badly",
        path=(ctx.tree.top,),
        hint="a static model is served the exact BDD value (raise "
        "--bdd-node-budget if the run fell back to cutsets); otherwise "
        "read cutset results as loose upper bounds only",
    )


@rule(
    "SD506",
    "simplifiable-model",
    Severity.INFO,
    "The verified rewrite engine can shrink this model.",
)
def check_simplifiable(ctx: LintContext) -> Iterator[Diagnostic]:
    preview = ctx.simplify_preview
    if preview is None or not preview.changed:
        return
    if preview.removed_gates <= 0 and preview.removed_events <= 0:
        return
    tally = ", ".join(
        f"{count}x {kind}" for kind, count in sorted(preview.counts_by_kind().items())
    )
    yield Diagnostic(
        "SD506",
        Severity.INFO,
        ctx.tree.top,
        f"`sdft simplify` shrinks the model from {preview.gates_before} "
        f"to {preview.gates_after} gates "
        f"({preview.events_before} to {preview.events_after} events) "
        f"with every rewrite BDD-verified ({tally})",
        path=(ctx.tree.top,),
        hint="run `sdft simplify <model> --output <smaller>` before "
        "heavy analyses; equivalence of the top and all trigger "
        "scopes is checked, not assumed",
    )


@rule(
    "SD507",
    "non-coherent-function",
    Severity.ERROR,
    "The compiled top function is not monotone (engine self-check).",
)
def check_coherence(ctx: LintContext) -> Iterator[Diagnostic]:
    report = ctx.logic
    if report is None or not report.non_monotone:
        return
    witnesses = ", ".join(report.non_monotone)
    yield Diagnostic(
        "SD507",
        Severity.ERROR,
        ctx.tree.top,
        f"cofactor comparison found the top structure function "
        f"non-monotone in: {witnesses}; AND/OR/ATLEAST trees are "
        f"coherent by construction, so this indicates a compilation "
        f"defect — do not trust minimal-cutset results",
        path=(ctx.tree.top,),
        hint="this is an engine self-check; please report the model "
        "that produced it",
    )
