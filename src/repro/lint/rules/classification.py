"""Classification-preview rules (SD4xx): predicted quantification cost.

Section V-A's syntactic conditions — static branching, static joins,
uniform triggering — decide per trigger gate whether its cutsets get
the cheap chain construction or the expensive general case.  These
rules run :mod:`repro.core.classify` over the model *before* any
analysis and turn the outcome into diagnostics with a cost estimate,
so a modeller learns about a general-case trigger from ``sdft lint``
instead of from a slow run.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.classify import TriggerClass
from repro.ft.tree import GateType
from repro.lint.config import MCS_ESTIMATE_CAP
from repro.lint.context import LintContext
from repro.lint.diagnostic import Diagnostic, Severity
from repro.lint.registry import rule

__all__: list[str] = []


@rule(
    "SD401",
    "general-case-trigger",
    Severity.WARNING,
    "Trigger gate needs the general (most expensive) quantification case.",
)
def check_general_case_triggers(ctx: LintContext) -> Iterator[Diagnostic]:
    for gate_name, trigger_class in sorted(ctx.classification.by_gate.items()):
        if trigger_class is not TriggerClass.GENERAL:
            continue
        dynamic = ctx.sdft.dynamic_under(gate_name)
        static = ctx.sdft.static_under(gate_name)
        estimate = ctx.mcs_estimate(gate_name)
        cap = MCS_ESTIMATE_CAP
        about = f"~{estimate}" if estimate < cap else f">={cap}"
        yield Diagnostic(
            "SD401",
            Severity.WARNING,
            gate_name,
            f"trigger gate has neither static branching nor static "
            f"joins: every cutset touching its {len(dynamic)} dynamic "
            f"event(s) pulls in up to {len(static)} static guard(s) as "
            f"extra chain dimensions ({about} cutset combinations under "
            f"the gate, pre-minimisation)",
            path=ctx.path_to(gate_name),
            hint="restructure so OR gates under the trigger have at most "
            "one dynamic child (static branching) or keep dynamic "
            "events out of AND gates (static joins)",
        )


@rule(
    "SD402",
    "nonuniform-static-joins",
    Severity.INFO,
    "Static joins without uniform triggering: chained triggers fall "
    "back to the general case.",
)
def check_nonuniform_static_joins(ctx: LintContext) -> Iterator[Diagnostic]:
    for gate_name, trigger_class in sorted(ctx.classification.by_gate.items()):
        if trigger_class is not TriggerClass.STATIC_JOINS:
            continue
        dynamic = sorted(ctx.sdft.dynamic_under(gate_name))
        untriggered = [n for n in dynamic if ctx.sdft.trigger_of.get(n) is None]
        sources = sorted(
            {
                source
                for source in map(ctx.sdft.trigger_of.get, dynamic)
                if source is not None
            }
        )
        if untriggered:
            reason = (
                f"dynamic event(s) {', '.join(untriggered)} under it are "
                f"not triggered at all"
            )
        else:
            reason = (
                f"its dynamic events are switched by different gates "
                f"({', '.join(sources)})"
            )
        yield Diagnostic(
            "SD402",
            Severity.INFO,
            gate_name,
            f"the gate has static joins but not uniform triggering: "
            f"{reason}; added trigger gates on top of this one would "
            f"quantify as the general case",
            path=ctx.path_to(gate_name),
            hint="uniform triggering needs every dynamic event in the "
            "subtree switched by one common gate",
        )


@rule(
    "SD403",
    "voting-gate-over-dynamic",
    Severity.INFO,
    "Proper voting gate above dynamic events is classified "
    "conservatively (general case).",
)
def check_voting_over_dynamic(ctx: LintContext) -> Iterator[Diagnostic]:
    seen: set[str] = set()
    for trigger_gate in ctx.classification.by_gate:
        for name in sorted(ctx.tree.gates_under(trigger_gate)):
            if name in seen:
                continue
            gate = ctx.tree.gates[name]
            if gate.gate_type is not GateType.ATLEAST:
                continue
            assert gate.k is not None
            if gate.k == 1 or gate.k == len(gate.children):
                continue  # degenerate: classify resolves these exactly
            if not any(
                ctx.sdft.dynamic_under_node(child) for child in gate.children
            ):
                continue
            seen.add(name)
            yield Diagnostic(
                "SD403",
                Severity.INFO,
                name,
                f"proper {gate.k}-of-{len(gate.children)} voting gate "
                f"with dynamic inputs under trigger gate "
                f"{trigger_gate!r}: the classification treats it as "
                f"violating both static branching and static joins, "
                f"routing the trigger to the general case",
                path=ctx.path_to(name),
                hint="normalise the voting gate into AND/OR logic if the "
                "cheap quantification classes matter here",
            )
