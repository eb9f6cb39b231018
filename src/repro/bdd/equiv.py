"""BDD-backed semantic equivalence of fault trees and scopes.

The semantic-analysis passes of :mod:`repro.sem` (and the rewrite engine
in particular) need one primitive: *do two coherent structure functions
denote the same boolean function?*  Hash-consing makes the answer O(1)
once both functions live in one manager — equal functions reduce to the
same node id — so the helpers here compile the candidates into a shared
manager under one union variable order and compare roots.

Three deliberate design points:

* **Constants are substituted, not ordered.**  A basic event pinned to
  ``True``/``False`` (probability one/zero, as decided by the caller)
  becomes a terminal, so equivalence is judged over the *remaining free
  variables* — exactly what constant-propagation rewrites change.
* **Scopes, not just tops.**  SD trees attach semantics to interior
  gates (a trigger fires on its source gate's status), so
  :func:`trees_equivalent` can be asked to also prove named interior
  scopes equivalent, in the same compilation.
* **Budgeted.**  All compilation goes through the ordinary
  ``node_budget`` guard; a blow-up surfaces as the usual clean
  :class:`~repro.errors.BddBudgetExceeded`, never a hang.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.bdd.engine import FALSE, TRUE, BddManager
from repro.bdd.ordering import dfs_order
from repro.ft.tree import FaultTree, Gate, GateType

__all__ = [
    "MIN_OPERANDS",
    "compile_into",
    "compose_gate",
    "is_monotone",
    "non_monotone_variables",
    "trees_equivalent",
    "union_variables",
]

#: A gate needs at least two operands before one can be dropped (or
#: deduplicated) and still leave a well-formed gate behind.
MIN_OPERANDS = 2


def union_variables(
    trees: Iterable[FaultTree],
    constants: Mapping[str, bool] | None = None,
) -> dict[str, int]:
    """One shared variable order over the basic events of several trees.

    Constant events are excluded — they compile to terminals.  The order
    follows the DFS heuristic of the *first* tree (structure-aware
    orders keep deep module-heavy trees compact; an alphabetical order
    can blow the node budget on models a good order compiles in
    milliseconds), with events only the other trees know appended
    alphabetically.  Only sameness of the order across the compared
    sides matters for correctness; quality decides whether the check
    fits the budget.
    """
    sequence = list(trees)
    skip = set(constants or {})
    ordered: list[str] = []
    seen: set[str] = set(skip)
    if sequence:
        for name in dfs_order(sequence[0]):
            if name not in seen:
                ordered.append(name)
                seen.add(name)
    extras: set[str] = set()
    for tree in sequence[1:]:
        extras.update(name for name in tree.events if name not in seen)
    ordered.extend(sorted(extras))
    return {name: index for index, name in enumerate(ordered)}


def compile_into(
    tree: FaultTree,
    manager: BddManager,
    variables: Mapping[str, int],
    constants: Mapping[str, bool] | None = None,
) -> dict[str, int]:
    """Compile every node of ``tree`` into an existing manager.

    ``variables`` maps free event names to variable indices (shared with
    any other tree compiled into the same manager); events listed in
    ``constants`` compile to the corresponding terminal.  Returns the
    node of every event *and* gate, keyed by name.
    """
    constants = constants or {}
    node_of: dict[str, int] = {}
    for name in tree.events:
        if name in constants:
            node_of[name] = TRUE if constants[name] else FALSE
        else:
            node_of[name] = manager.var(variables[name])
    for gate in tree.gates_bottom_up():
        node = compose_gate(manager, gate, [node_of[c] for c in gate.children])
        assert node is not None  # a gate's own threshold fits its children
        node_of[gate.name] = node
    return node_of


def compose_gate(manager: BddManager, gate: Gate, children: list[int]) -> int | None:
    """The gate's function over the given child nodes.

    ``children`` may be a reduced operand list (the vacuity checks drop
    one operand at a time); ``None`` when a voting threshold no longer
    fits it.
    """
    if gate.gate_type is GateType.AND:
        return manager.conjoin(children)
    if gate.gate_type is GateType.OR:
        return manager.disjoin(children)
    assert gate.k is not None
    if not 1 <= gate.k <= len(children):
        return None
    return manager.atleast(gate.k, children)


def trees_equivalent(
    a: FaultTree,
    b: FaultTree,
    *,
    scopes: Iterable[str] = (),
    constants: Mapping[str, bool] | None = None,
    node_budget: int | None = None,
) -> bool:
    """Whether two trees denote the same structure function.

    Both trees compile into one fresh manager under a shared variable
    order; hash-consing then makes the comparison a node-id equality.
    ``scopes`` optionally names interior gates that must *also* agree —
    a gate named in ``scopes`` must exist in both trees and denote the
    same function (the rewrite engine uses this for trigger gates).

    Raises :class:`~repro.errors.BddBudgetExceeded` if either side blows
    past ``node_budget``; the caller decides whether unverifiable means
    rejected (the rewrite engine's policy) or merely unknown.
    """
    variables = union_variables((a, b), constants)
    manager = BddManager(node_budget=node_budget)
    roots_a = compile_into(a, manager, variables, constants)
    roots_b = compile_into(b, manager, variables, constants)
    if roots_a[a.top] != roots_b[b.top]:
        return False
    for scope in scopes:
        if scope not in roots_a or scope not in roots_b:
            return False
        if roots_a[scope] != roots_b[scope]:
            return False
    return True


def non_monotone_variables(manager: BddManager, node: int) -> frozenset[int]:
    """Variables witnessing non-monotonicity of ``node``'s function.

    A function is monotone (coherent) iff at every reachable BDD node
    the low cofactor implies the high cofactor — by induction over the
    Shannon expansion, since the cofactors of a monotone function are
    monotone and ``f = (1-x)·f_low + x·f_high``.  Each failing node's
    root variable is a witness: raising that variable can un-fail the
    function.  Empty iff the function is monotone.
    """
    witnesses: set[int] = set()
    for n in manager._nodes_below(node):
        var = manager.top_var(n)
        low, high = manager.cofactors(n, var)
        if manager.apply_or(low, high) != high:
            witnesses.add(var)
    return frozenset(witnesses)


def is_monotone(manager: BddManager, node: int) -> bool:
    """Whether the function rooted at ``node`` is monotone (coherent).

    Every function compiled from AND/OR/ATLEAST gates over positive
    literals is monotone by construction; this check is the *verifier*
    for that claim, used by the semantic diagnostics as a guard on the
    engine itself.
    """
    return not non_monotone_variables(manager, node)
