"""Probabilistic rules (SD2xx): numbers that undermine the analysis.

The rare-event sum of Section IV, the MOCUS cutoff of Section V and the
uniformization solver all rest on quantitative assumptions a model can
silently violate.  These rules compare the worst-case event
probabilities (the exact numbers the static translation will use) and
the raw chain rates against the configured horizon and cutoff — before
a single cutset is generated.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.config import (
    NEGLIGIBLE_EXPOSURE,
    RARE_EVENT_THRESHOLD,
    STIFFNESS_THRESHOLD,
)
from repro.lint.context import LintContext
from repro.lint.diagnostic import Diagnostic, Severity
from repro.lint.registry import rule

__all__: list[str] = []


@rule(
    "SD201",
    "rare-event-degraded",
    Severity.WARNING,
    "Worst-case event probability is large; the rare-event sum degrades.",
)
def check_rare_event_threshold(ctx: LintContext) -> Iterator[Diagnostic]:
    threshold = RARE_EVENT_THRESHOLD
    for name in sorted(ctx.sdft.all_event_names):
        if name not in ctx.effective_reachable:
            continue
        probability = ctx.worst_case(name)
        if probability is None or probability <= threshold:
            continue
        if ctx.sdft.is_static(name) and probability == 1.0:
            continue  # SD202's finding
        if ctx.sdft.is_dynamic(name):
            chain = ctx.sdft.dynamic_events[name].chain
            if all(state in chain.failed for state in chain.initial):
                continue  # SD209's finding
        yield Diagnostic(
            "SD201",
            Severity.WARNING,
            name,
            f"worst-case probability {probability:.3g} over the "
            f"{ctx.config.horizon} h horizon exceeds {threshold:g}; the "
            f"rare-event approximation over-counts cutsets containing "
            f"this event",
            path=ctx.path_to(name),
            hint="shorten the horizon, lower the failure rate, or read "
            "the result as an upper bound only",
        )


@rule(
    "SD202",
    "certain-event",
    Severity.WARNING,
    "Static basic event with probability one is certain to fail.",
)
def check_certain_events(ctx: LintContext) -> Iterator[Diagnostic]:
    for name, event in sorted(ctx.sdft.static_events.items()):
        if event.probability != 1.0:
            continue
        yield Diagnostic(
            "SD202",
            Severity.WARNING,
            name,
            "probability 1: the event is certain, so it adds nothing to "
            "AND logic and saturates every OR above it",
            path=ctx.path_to(name),
            hint="model certainties structurally (drop the event) or "
            "give the event its real probability",
        )


@rule(
    "SD203",
    "zero-probability-event",
    Severity.INFO,
    "Static basic event with probability zero can never contribute.",
)
def check_zero_probability_events(ctx: LintContext) -> Iterator[Diagnostic]:
    for name, event in sorted(ctx.sdft.static_events.items()):
        if event.probability != 0.0:
            continue
        yield Diagnostic(
            "SD203",
            Severity.INFO,
            name,
            "probability 0: the event can never contribute to a cutset",
            path=ctx.path_to(name),
            hint="delete the event or give it a real probability",
        )


@rule(
    "SD204",
    "cutoff-empties-mcs",
    Severity.ERROR,
    "The cutoff exceeds every event's worst-case probability: the "
    "cutset list is guaranteed empty.",
)
def check_cutoff_empties_mcs(ctx: LintContext) -> Iterator[Diagnostic]:
    cutoff = ctx.config.cutoff
    if cutoff <= 0.0:
        return
    best = 0.0
    solved_any = False
    for name in ctx.sdft.all_event_names:
        if name not in ctx.effective_reachable:
            continue
        probability = ctx.worst_case(name)
        if probability is None:
            # An unsolvable chain leaves the bound unknown; stay silent
            # rather than reject a model on a guess.
            return
        solved_any = True
        best = max(best, probability)
    if solved_any and best < cutoff:
        yield Diagnostic(
            "SD204",
            Severity.ERROR,
            ctx.tree.top,
            f"cutoff {cutoff:g} exceeds the largest worst-case event "
            f"probability {best:.3g}; every cutset falls below the "
            f"cutoff and MOCUS silently returns an empty list",
            path=(ctx.tree.top,),
            hint=f"lower the cutoff below {best:.3g} or fix the event "
            f"probabilities",
        )


@rule(
    "SD205",
    "event-below-cutoff",
    Severity.WARNING,
    "Event's worst-case probability is below the cutoff; it can never "
    "appear in a reported cutset.",
)
def check_events_below_cutoff(ctx: LintContext) -> Iterator[Diagnostic]:
    cutoff = ctx.config.cutoff
    if cutoff <= 0.0:
        return
    for name in sorted(ctx.sdft.all_event_names):
        if name not in ctx.effective_reachable:
            continue
        probability = ctx.worst_case(name)
        if probability is None or probability == 0.0 or probability >= cutoff:
            continue
        yield Diagnostic(
            "SD205",
            Severity.WARNING,
            name,
            f"worst-case probability {probability:.3g} is below the "
            f"cutoff {cutoff:g}; a cutset's probability never exceeds "
            f"its rarest member, so this event is invisible to the "
            f"analysis",
            path=ctx.path_to(name),
            hint="lower the cutoff or accept that the event is ignored",
        )


@rule(
    "SD206",
    "stiff-chain",
    Severity.WARNING,
    "Chain rates are extreme against the horizon; the transient solve "
    "will be expensive.",
)
def check_stiff_chains(ctx: LintContext) -> Iterator[Diagnostic]:
    threshold = STIFFNESS_THRESHOLD
    horizon = ctx.config.horizon
    for name, event in sorted(ctx.sdft.dynamic_events.items()):
        exposure = ctx.max_exit_rate(event.chain) * horizon
        if exposure <= threshold:
            continue
        yield Diagnostic(
            "SD206",
            Severity.WARNING,
            name,
            f"max exit rate x horizon = {exposure:.3g} exceeds "
            f"{threshold:g}; uniformization needs on the order of that "
            f"many matrix-vector products per solve of any cutset chain "
            f"containing this event",
            path=ctx.path_to(name),
            hint="rescale near-instantaneous transitions (model them as "
            "switches or static events) or shorten the horizon",
        )


@rule(
    "SD207",
    "inert-chain",
    Severity.WARNING,
    "Dynamic event whose chain can never reach a failed state.",
)
def check_inert_chains(ctx: LintContext) -> Iterator[Diagnostic]:
    for name in sorted(ctx.sdft.dynamic_events):
        if ctx.chain_can_fail(name):
            continue
        yield Diagnostic(
            "SD207",
            Severity.WARNING,
            name,
            "no failed state is reachable from the chain's initial "
            "states; the event can never fail and is dead weight in "
            "every cutset",
            path=ctx.path_to(name),
            hint="add the missing failure transitions or declare the "
            "component as a static event",
        )


@rule(
    "SD208",
    "negligible-rates",
    Severity.INFO,
    "Chain rates are negligible against the horizon; the event "
    "effectively never moves within the mission.",
)
def check_negligible_rates(ctx: LintContext) -> Iterator[Diagnostic]:
    threshold = NEGLIGIBLE_EXPOSURE
    horizon = ctx.config.horizon
    for name, event in sorted(ctx.sdft.dynamic_events.items()):
        if not ctx.chain_can_fail(name):
            continue  # SD207's finding; no rate tuning will matter
        exposure = ctx.max_exit_rate(event.chain) * horizon
        if exposure == 0.0 or exposure >= threshold:
            continue
        yield Diagnostic(
            "SD208",
            Severity.INFO,
            name,
            f"max exit rate x horizon = {exposure:.3g} is below "
            f"{threshold:g}; the chain is effectively frozen over the "
            f"mission and the event contributes nothing measurable",
            path=ctx.path_to(name),
            hint="check the rate units (per hour expected) against the "
            "horizon",
        )


@rule(
    "SD209",
    "initially-failed-event",
    Severity.INFO,
    "Dynamic event starts failed (initiating-event shape); its static "
    "stand-in is probability one.",
)
def check_initially_failed_events(ctx: LintContext) -> Iterator[Diagnostic]:
    for name, event in sorted(ctx.sdft.dynamic_events.items()):
        chain = event.chain
        if not all(state in chain.failed for state in chain.initial):
            continue
        yield Diagnostic(
            "SD209",
            Severity.INFO,
            name,
            "the chain starts in its failed states — an initiating-event "
            "shape; the static translation assigns it worst-case "
            "probability 1, so the rare-event bound for its cutsets "
            "leans entirely on the other members",
            path=ctx.path_to(name),
            hint="intentional for initiating events; otherwise check the "
            "chain's initial distribution",
        )
