"""BDD-verified logical diagnostics of a fault tree.

Shape-level rules can tell that a gate is unreachable or an event
improbable; they cannot tell that an operand *contributes nothing* to
its gate, that a gate is a tautology once the constant events are
substituted, or that an event sits in the tree yet outside the support
of the top structure function.  These are properties of the denoted
boolean function, so this pass compiles the whole model into one BDD
(under the usual node budget) and reads them off exactly:

* **constant gates** — gates whose function reduces to TRUE or FALSE
  under the given constant substitution;
* **vacuous operands** — operands whose removal leaves the gate's
  function BDD-identical (subsumed by absorption, implied by a sibling,
  or masked by a constant);
* **dead events** — reachable, non-constant events outside the support
  of the top function: they can never influence the top event;
* **coherence verification** — the compiled top function is checked to
  be monotone via cofactor comparison; any witness variable is reported
  (for AND/OR/ATLEAST trees this is a self-check of the engine, and the
  expected result is "none").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.bdd.engine import FALSE, TRUE, BddManager
from repro.bdd.equiv import (
    MIN_OPERANDS,
    compile_into,
    compose_gate,
    non_monotone_variables,
    union_variables,
)
from repro.ft.tree import FaultTree

__all__ = ["LogicReport", "VacuousOperand", "logical_diagnostics"]


@dataclass(frozen=True)
class VacuousOperand:
    """An operand whose removal leaves its gate's function unchanged."""

    gate: str
    operand: str


@dataclass(frozen=True)
class LogicReport:
    """Everything the logical pass proved about one tree.

    ``constant_gates`` maps reachable gates to their constant value
    (``True`` = tautology, ``False`` = contradiction) under the constant
    substitution the pass was given.  ``non_monotone`` names events
    witnessing non-coherence of the top function — empty for any tree
    this package can build, and verified rather than assumed.
    """

    constant_gates: Mapping[str, bool]
    vacuous: tuple[VacuousOperand, ...]
    dead_events: tuple[str, ...]
    non_monotone: tuple[str, ...]
    node_count: int


def logical_diagnostics(
    tree: FaultTree,
    *,
    constants: Mapping[str, bool] | None = None,
    node_budget: int | None = None,
) -> LogicReport:
    """Compile ``tree`` once and extract all logical diagnostics.

    ``constants`` pins events to TRUE/FALSE before compilation (the
    caller decides what counts as constant — for SD trees the dynamic
    placeholders must *not* be pinned).  Raises
    :class:`~repro.errors.BddBudgetExceeded` when compilation overruns
    ``node_budget``; callers that must not fail (the linter) catch it.
    """
    constants = constants or {}
    variables = union_variables((tree,), constants)
    manager = BddManager(node_budget=node_budget)
    node_of = compile_into(tree, manager, variables, constants)
    reachable = tree.reachable_from_top()

    constant_gates = {
        gate: node_of[gate] == TRUE
        for gate in sorted(tree.gates)
        if gate in reachable and node_of[gate] in (FALSE, TRUE)
    }
    vacuous = tuple(_vacuous_operands(tree, manager, node_of, reachable))
    dead_events = tuple(
        _dead_events(tree, manager, node_of, variables, constants, reachable)
    )
    witness_names = {
        name
        for name, index in variables.items()
        if index in non_monotone_variables(manager, node_of[tree.top])
    }
    return LogicReport(
        constant_gates=constant_gates,
        vacuous=vacuous,
        dead_events=dead_events,
        non_monotone=tuple(sorted(witness_names)),
        node_count=manager.count_nodes(node_of[tree.top]),
    )


def _vacuous_operands(
    tree: FaultTree,
    manager: BddManager,
    node_of: Mapping[str, int],
    reachable: frozenset[str],
) -> Iterator[VacuousOperand]:
    """Operands whose removal leaves the gate's function identical.

    For each candidate the gate is re-composed without the operand and
    compared by node id — the comparison *is* the BDD verification.
    Constant-valued gates are skipped (every operand of a dominated gate
    is trivially vacuous; the constant-gate finding covers them).
    """
    for gate in tree.gates_bottom_up():
        if gate.name not in reachable:
            continue
        if node_of[gate.name] in (FALSE, TRUE):
            continue
        if len(gate.children) < MIN_OPERANDS:
            continue
        for operand in gate.children:
            rest = [node_of[child] for child in gate.children if child != operand]
            without = compose_gate(manager, gate, rest)
            if without is not None and without == node_of[gate.name]:
                yield VacuousOperand(gate=gate.name, operand=operand)


def _dead_events(
    tree: FaultTree,
    manager: BddManager,
    node_of: Mapping[str, int],
    variables: Mapping[str, int],
    constants: Mapping[str, bool],
    reachable: frozenset[str],
) -> Iterator[str]:
    """Reachable free events outside the support of the top function."""
    support = manager.support(node_of[tree.top])
    for name in sorted(tree.events):
        if name not in reachable or name in constants:
            continue
        if variables[name] not in support:
            yield name
