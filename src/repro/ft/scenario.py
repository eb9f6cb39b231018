"""Scenario semantics of static fault trees (paper, Section II).

A *scenario* is a set of basic events assumed failed; all other basic
events are functional.  A gate is failed by a scenario according to its
logic (AND: all inputs failed; OR: any input failed; ATLEAST: at least
``k`` inputs failed), evaluated bottom-up over the DAG.

These routines are the semantic ground truth for everything else in
:mod:`repro.ft` — cutsets, MOCUS, the BDD compilation and the probability
calculations are all tested against brute-force enumeration built on
:func:`evaluate`.
"""

from __future__ import annotations

import itertools
from typing import AbstractSet, Iterable, Iterator

from repro.errors import UnknownNodeError
from repro.ft.tree import FaultTree, GateType

__all__ = [
    "evaluate",
    "fails",
    "fails_top",
    "failure_scenarios",
    "scenario_probability",
    "exact_top_probability",
]


def evaluate(tree: FaultTree, scenario: AbstractSet[str]) -> dict[str, bool]:
    """Failure status of every node of ``tree`` under ``scenario``.

    Returns a mapping from node name (basic events and gates alike) to
    ``True`` if the node is failed by the scenario.  Unknown names in the
    scenario raise :class:`~repro.errors.UnknownNodeError` — a silently
    ignored typo in a scenario would invalidate an entire analysis.
    """
    for name in scenario:
        if not tree.is_event(name):
            raise UnknownNodeError(f"scenario contains non-event {name!r}")
    status: dict[str, bool] = {name: name in scenario for name in tree.events}
    for gate in tree.gates_bottom_up():
        failed_inputs = sum(status[child] for child in gate.children)
        if gate.gate_type is GateType.AND:
            status[gate.name] = failed_inputs == len(gate.children)
        elif gate.gate_type is GateType.OR:
            status[gate.name] = failed_inputs > 0
        else:  # ATLEAST
            assert gate.k is not None
            status[gate.name] = failed_inputs >= gate.k
    return status


def fails(tree: FaultTree, scenario: AbstractSet[str], gate_name: str) -> bool:
    """Return whether ``scenario`` fails the gate ``gate_name``."""
    return evaluate(tree, scenario)[gate_name]


def fails_top(tree: FaultTree, scenario: AbstractSet[str]) -> bool:
    """Return whether ``scenario`` is a failure scenario (fails the top gate)."""
    return evaluate(tree, scenario)[tree.top]


def failure_scenarios(tree: FaultTree) -> Iterator[frozenset[str]]:
    """Enumerate all failure scenarios by brute force.

    Exponential in the number of basic events; intended for tests and
    tiny examples only (it refuses trees with more than 22 events).
    """
    names = sorted(tree.events)
    if len(names) > 22:
        raise ValueError(
            f"brute-force enumeration over {len(names)} events is not sensible"
        )
    for r in range(len(names) + 1):
        for combo in itertools.combinations(names, r):
            scenario = frozenset(combo)
            if fails_top(tree, scenario):
                yield scenario


def scenario_probability(
    tree: FaultTree, scenario: AbstractSet[str]
) -> float:
    """Probability of exactly this scenario (paper, Section II).

    The product of ``p(a)`` over failed events and ``1 - p(a)`` over
    functional ones, under the independence assumption of static fault
    trees.
    """
    result = 1.0
    for name, event in tree.events.items():
        if name in scenario:
            result *= event.probability
        else:
            result *= 1.0 - event.probability
    return result


def exact_top_probability(tree: FaultTree) -> float:
    """Exact ``p(FT)`` by summing all failure scenarios.

    Brute force, for tests and tiny trees only — see
    :func:`repro.bdd.ft_bdd.exact_probability` for the scalable exact
    method.
    """
    return sum(scenario_probability(tree, s) for s in failure_scenarios(tree))


def minimal_failure_sets(
    tree: FaultTree, universe: Iterable[str] | None = None
) -> list[frozenset[str]]:
    """Brute-force minimal cutsets over an optional sub-universe of events.

    Enumerates subsets of ``universe`` (default: all events) in order of
    size and keeps the inclusion-minimal ones that fail the top gate.
    Exponential; used as a test oracle for MOCUS and the BDD extraction.
    """
    names = sorted(universe if universe is not None else tree.events)
    if len(names) > 20:
        raise ValueError(
            f"brute-force minimisation over {len(names)} events is not sensible"
        )
    minimal: list[frozenset[str]] = []
    for r in range(len(names) + 1):
        for combo in itertools.combinations(names, r):
            candidate = frozenset(combo)
            if any(m <= candidate for m in minimal):
                continue
            if fails_top(tree, candidate):
                minimal.append(candidate)
    return minimal
