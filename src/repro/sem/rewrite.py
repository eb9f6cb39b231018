"""The equivalence-checked model diet: verified semantic rewriting.

Shrinks a fault tree (or the gate structure of an SD fault tree)
without changing what it means.  Five rewrite families run to fixpoint:

* **constant propagation** — static events pinned to probability zero
  or one are folded through the gates (three-valued, so a gate only
  rewrites once its value is decided);
* **degenerate voting** — ``ATLEAST(1 of n)`` becomes OR,
  ``ATLEAST(n of n)`` becomes AND;
* **pass-through flattening** — single-child gates collapse into their
  child, and single-parent same-type children merge into their parent
  (idempotent duplicates are dropped for AND/OR);
* **semantic deduplication and vacuity** — gates denoting the *same
  boolean function* (BDD node identity) merge even when structurally
  different, gates equal to one of their operands collapse onto it, and
  operands whose removal leaves the gate's function BDD-identical
  (absorption, implication by a sibling) are dropped;
* **pruning** — gates and static events no longer reachable from any
  protected root are removed.

Soundness is *checked, not assumed*: at the end of every fixpoint
round, the round's input and output trees are compiled into one shared
BDD manager (constants substituted) and proven equivalent on the top
scope and on every trigger-gate scope, under the node budget.  A round
that cannot be verified (budget) is reverted wholesale; a round that
verifies as different raises :class:`~repro.errors.InvariantViolation`
— that would be an engine bug, and it must be loud.

SD fault trees add protections on top: the top gate and every trigger
source gate survive by name with their exact function (triggers fire on
gate status, so those scopes are semantics, not just structure), and
dynamic basic events are never pruned.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.bdd.engine import FALSE, TRUE, BddManager
from repro.bdd.equiv import (
    MIN_OPERANDS,
    compile_into,
    compose_gate,
    trees_equivalent,
    union_variables,
)
from repro.core.sdft import SdFaultTree
from repro.errors import BddBudgetExceeded, InvariantViolation
from repro.ft.tree import BasicEvent, FaultTree, Gate, GateType

__all__ = ["DEFAULT_NODE_BUDGET", "Rewrite", "SimplifyResult", "simplify"]

#: Default BDD node budget per verification/compilation scope; matches
#: the analyzer's ``bdd_node_budget`` default.
DEFAULT_NODE_BUDGET = 200_000

#: Hard ceiling on fixpoint rounds — each round either changes the tree
#: (strictly shrinking gate count or operand count) or ends the loop, so
#: this is a backstop, not a tuning knob.
_MAX_ROUNDS = 50


@dataclass(frozen=True)
class Rewrite:
    """One applied rewrite: what kind, where, and what it did."""

    kind: str
    node: str
    detail: str


@dataclass(frozen=True)
class SimplifyResult:
    """The simplified model plus the audit trail that justifies it."""

    model: FaultTree | SdFaultTree
    rewrites: tuple[Rewrite, ...]
    gates_before: int
    gates_after: int
    events_before: int
    events_after: int
    verified_scopes: int
    rounds: int
    budget_hit: bool

    @property
    def changed(self) -> bool:
        """Whether any rewrite was applied (and survived verification)."""
        return bool(self.rewrites)

    @property
    def removed_gates(self) -> int:
        return self.gates_before - self.gates_after

    @property
    def removed_events(self) -> int:
        return self.events_before - self.events_after

    def counts_by_kind(self) -> dict[str, int]:
        """Rewrite tally per kind, for reports and metrics."""
        counts: dict[str, int] = {}
        for rewrite in self.rewrites:
            counts[rewrite.kind] = counts.get(rewrite.kind, 0) + 1
        return counts


@dataclass
class _State:
    """Mutable working state of one simplification run."""

    top: str
    events: dict[str, BasicEvent]
    gates: dict[str, Gate]
    protected: frozenset[str]
    constants: dict[str, bool]
    node_budget: int | None
    rewrites: list[Rewrite] = field(default_factory=list)
    verified_scopes: int = 0
    budget_hit: bool = False

    def tree(self) -> FaultTree:
        return FaultTree(self.top, self.events.values(), self.gates.values())

    def record(self, kind: str, node: str, detail: str) -> None:
        self.rewrites.append(Rewrite(kind, node, detail))


def simplify(
    model: FaultTree | SdFaultTree,
    *,
    node_budget: int | None = DEFAULT_NODE_BUDGET,
) -> SimplifyResult:
    """Simplify a model; every surviving rewrite is BDD-verified.

    Static trees simplify freely; SD trees keep the top gate, every
    trigger source gate (same name, same function) and every dynamic
    basic event.  The returned model is of the same type as the input.
    On a node-budget overrun during verification the unverifiable round
    is dropped, so the result is always verified — possibly the
    unchanged input (``budget_hit`` tells).
    """
    if isinstance(model, SdFaultTree):
        return _simplify_sdft(model, node_budget)
    state = _initial_state(
        model.top,
        dict(model.events),
        dict(model.gates),
        protected=frozenset((model.top,)),
        constant_candidates=frozenset(model.events),
        node_budget=node_budget,
    )
    rounds = _run(state)
    kept_events = _kept_events(state, protected_events=frozenset())
    simplified = FaultTree(
        state.top, kept_events.values(), state.gates.values(), name=model.name
    )
    return _result(model, simplified, state, len(model.gates), len(model.events), rounds)


def _simplify_sdft(model: SdFaultTree, node_budget: int | None) -> SimplifyResult:
    structure = model.structure
    state = _initial_state(
        structure.top,
        dict(structure.events),
        dict(structure.gates),
        protected=frozenset((structure.top,)) | frozenset(model.triggers),
        constant_candidates=frozenset(model.static_events),
        node_budget=node_budget,
    )
    rounds = _run(state)
    kept_events = _kept_events(state, protected_events=frozenset(model.dynamic_events))
    simplified = SdFaultTree(
        state.top,
        [model.static_events[n] for n in kept_events if n in model.static_events],
        model.dynamic_events.values(),
        state.gates.values(),
        model.triggers,
        name=model.name,
    )
    before_events = len(model.static_events) + len(model.dynamic_events)
    return _result(
        model, simplified, state, len(structure.gates), before_events, rounds
    )


def _initial_state(
    top: str,
    events: dict[str, BasicEvent],
    gates: dict[str, Gate],
    *,
    protected: frozenset[str],
    constant_candidates: frozenset[str],
    node_budget: int | None,
) -> _State:
    constants = {
        name: events[name].probability == 1.0
        for name in constant_candidates
        if events[name].probability in (0.0, 1.0)
    }
    return _State(
        top=top,
        events=events,
        gates=gates,
        protected=protected,
        constants=constants,
        node_budget=node_budget,
    )


def _result(
    original: FaultTree | SdFaultTree,
    simplified: FaultTree | SdFaultTree,
    state: _State,
    gates_before: int,
    events_before: int,
    rounds: int,
) -> SimplifyResult:
    if isinstance(simplified, SdFaultTree):
        events_after = len(simplified.static_events) + len(simplified.dynamic_events)
    else:
        events_after = len(simplified.events)
    if not state.rewrites:
        simplified = original  # bit-identical no-op: hand back the input object
    return SimplifyResult(
        model=simplified,
        rewrites=tuple(state.rewrites),
        gates_before=gates_before,
        gates_after=len(state.gates),
        events_before=events_before,
        events_after=events_after,
        verified_scopes=state.verified_scopes,
        rounds=rounds,
        budget_hit=state.budget_hit,
    )


# ----------------------------------------------------------------------
# The fixpoint loop
# ----------------------------------------------------------------------


def _run(state: _State) -> int:
    """Rewrite to fixpoint; verify (and possibly revert) every round."""
    rounds = 0
    for _ in range(_MAX_ROUNDS):
        before_gates = dict(state.gates)
        before_count = len(state.rewrites)
        _constant_pass(state)
        _degenerate_pass(state)
        _flatten_pass(state)
        _semantic_pass(state)
        _prune_pass(state)
        if len(state.rewrites) == before_count:
            break
        rounds += 1
        if not _verify_round(state, before_gates):
            # Unverifiable round: drop its changes, keep earlier rounds.
            state.gates = before_gates
            del state.rewrites[before_count:]
            state.budget_hit = True
            break
    return rounds


def _verify_round(state: _State, before_gates: dict[str, Gate]) -> bool:
    """Prove the round preserved every protected scope, by shared BDD.

    Returns ``False`` only when the node budget made the proof
    impossible; an outright inequivalence raises — a rewrite that
    changes the model's meaning is an engine bug, never a degradation.
    """
    before = FaultTree(state.top, state.events.values(), before_gates.values())
    after = state.tree()
    scopes = sorted(state.protected & set(state.gates) - {state.top})
    try:
        equivalent = trees_equivalent(
            before,
            after,
            scopes=scopes,
            constants=state.constants,
            node_budget=state.node_budget,
        )
    except BddBudgetExceeded:
        return False
    if not equivalent:
        raise InvariantViolation(
            "semantic rewrite round failed BDD equivalence verification on "
            f"scope set {[state.top, *scopes]}; this is a rewrite-engine bug"
        )
    state.verified_scopes += 1 + len(scopes)
    return True


# ----------------------------------------------------------------------
# Constant propagation
# ----------------------------------------------------------------------


def _constant_pass(state: _State) -> None:
    """Fold constant (probability 0/1) static events through the gates.

    Three-valued bottom-up evaluation decides which nodes are constant;
    non-constant gates then drop their decided operands (neutral ones
    vanish, ATLEAST thresholds shift).  If the top or any protected gate
    is itself constant the model is degenerate — the linter's business,
    not the rewriter's — and the pass backs off entirely, clearing the
    constant substitution so verification stays faithful.
    """
    if not state.constants:
        return
    values = _constant_values(state)
    if any(values.get(name) is not None for name in state.protected):
        state.constants = {}
        return
    for name, gate in list(state.gates.items()):
        if values.get(name) is not None:
            continue
        decided = [c for c in gate.children if values.get(c) is not None]
        if decided:
            state.gates[name] = _drop_decided(state, gate, values, decided)


def _constant_values(state: _State) -> dict[str, bool | None]:
    values: dict[str, bool | None] = {
        name: state.constants.get(name) for name in state.events
    }
    for gate in state.tree().gates_bottom_up():
        values[gate.name] = _gate_value(gate, values)
    return values


def _gate_value(gate: Gate, values: Mapping[str, bool | None]) -> bool | None:
    decided = [values[c] for c in gate.children if values[c] is not None]
    true_count = sum(1 for v in decided if v)
    undecided = len(gate.children) - len(decided)
    if gate.gate_type is GateType.AND:
        if true_count == len(gate.children):
            return True
        return False if len(decided) > true_count else None
    if gate.gate_type is GateType.OR:
        if true_count > 0:
            return True
        return False if undecided == 0 else None
    assert gate.k is not None
    if true_count >= gate.k:
        return True
    if true_count + undecided < gate.k:
        return False
    return None


def _drop_decided(
    state: _State,
    gate: Gate,
    values: Mapping[str, bool | None],
    decided: list[str],
) -> Gate:
    kept = tuple(c for c in gate.children if values.get(c) is None)
    new_k = gate.k
    for child in decided:
        state.record(
            "constant",
            gate.name,
            f"dropped operand {child!r} (constant {values[child]})",
        )
    if gate.gate_type is GateType.ATLEAST:
        assert new_k is not None
        new_k -= sum(1 for child in decided if values[child])
    return replace(gate, children=kept, k=new_k)


# ----------------------------------------------------------------------
# Degenerate voting gates
# ----------------------------------------------------------------------


def _degenerate_pass(state: _State) -> None:
    """``ATLEAST(1 of n)`` is OR; ``ATLEAST(n of n)`` is AND."""
    for name, gate in list(state.gates.items()):
        if gate.gate_type is not GateType.ATLEAST:
            continue
        assert gate.k is not None
        if gate.k == 1:
            state.gates[name] = replace(gate, gate_type=GateType.OR, k=None)
            state.record("degenerate-vote", name, "ATLEAST(1 of n) rewritten to OR")
        elif gate.k == len(gate.children):
            state.gates[name] = replace(gate, gate_type=GateType.AND, k=None)
            state.record("degenerate-vote", name, "ATLEAST(n of n) rewritten to AND")


# ----------------------------------------------------------------------
# Structural flattening
# ----------------------------------------------------------------------


def _flatten_pass(state: _State) -> None:
    """Collapse pass-throughs and merge single-parent same-type children."""
    passthrough = {
        name: gate.children[0]
        for name, gate in state.gates.items()
        if len(gate.children) == 1 and name not in state.protected
    }
    if passthrough:
        for name, child in sorted(passthrough.items()):
            state.record("pass-through", name, f"collapsed into its only child {child!r}")
        _substitute(state, passthrough)
    _merge_same_type_children(state)


def _merge_same_type_children(state: _State) -> None:
    parents = _parent_counts(state.gates)
    for name in sorted(state.gates):
        gate = state.gates[name]
        if gate.gate_type is GateType.ATLEAST:
            continue
        merged = _merged_children(state, gate, parents)
        if merged is not None:
            state.gates[name] = replace(gate, children=merged)


def _merged_children(
    state: _State, gate: Gate, parents: Mapping[str, int]
) -> tuple[str, ...] | None:
    """The gate's child list with inlinable same-type children expanded."""
    changed = False
    flat: list[str] = []
    for child in gate.children:
        inner = state.gates.get(child)
        if (
            inner is not None
            and inner.gate_type is gate.gate_type
            and parents.get(child, 0) == 1
            and child not in state.protected
        ):
            flat.extend(c for c in inner.children if c not in flat)
            changed = True
            state.record(
                "flatten",
                gate.name,
                f"inlined single-parent {gate.gate_type.name} child {child!r}",
            )
        elif child not in flat:
            flat.append(child)
        else:
            changed = True  # idempotent duplicate introduced by an earlier inline
    return tuple(flat) if changed else None


def _parent_counts(gates: Mapping[str, Gate]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for gate in gates.values():
        for child in gate.children:
            counts[child] = counts.get(child, 0) + 1
    return counts


# ----------------------------------------------------------------------
# The BDD pass: semantic dedup, semantic pass-through, vacuous operands
# ----------------------------------------------------------------------


def _semantic_pass(state: _State) -> None:
    """Rewrites only a BDD can justify, each verified at discovery.

    Compiles the current tree once (constants substituted); node
    identity then proves gate-vs-gate and gate-vs-operand equivalences
    in O(1) each.  A budget overrun skips the pass — the structural
    passes keep their wins and the round verification still runs.
    """
    try:
        manager = BddManager(node_budget=state.node_budget)
        tree = state.tree()
        variables = union_variables((tree,), state.constants)
        node_of = compile_into(tree, manager, variables, state.constants)
    except BddBudgetExceeded:
        state.budget_hit = True
        return
    position = {gate.name: index for index, gate in enumerate(tree.gates_bottom_up())}
    substitution = _duplicate_gates(state, node_of, position)
    substitution.update(_semantic_passthrough(state, node_of, substitution))
    if substitution:
        _substitute(state, substitution)
    _drop_vacuous_operands(state, manager, node_of)


def _duplicate_gates(
    state: _State, node_of: Mapping[str, int], position: Mapping[str, int]
) -> dict[str, str]:
    """Map each gate denoting an already-seen function to its canonical twin.

    Every substitution points strictly *downward* in the bottom-up
    topological order.  This is what keeps the rewritten graph a DAG:
    two gates can denote the same function with one an ancestor of a
    parent of the other, and mapping upward would close a cycle through
    that parent.  The canonical twin is the topologically lowest
    protected gate of the group if one exists (protected gates must
    survive by name), else the lowest gate outright; an unprotected
    twin sitting *below* a protected canonical is simply left alone.
    """
    groups: dict[int, list[str]] = {}
    for name in sorted(state.gates):
        root = node_of[name]
        if root in (FALSE, TRUE):
            continue  # constant gates are the constant pass's business
        groups.setdefault(root, []).append(name)
    substitution: dict[str, str] = {}
    for names in groups.values():
        if len(names) < MIN_OPERANDS:
            continue
        names.sort(key=lambda n: position[n])
        protected = [n for n in names if n in state.protected]
        canonical = protected[0] if protected else names[0]
        for name in names:
            if name == canonical or name in state.protected:
                continue
            if position[canonical] > position[name]:
                continue  # mapping upward could close a cycle
            substitution[name] = canonical
            state.record(
                "duplicate-gate", name, f"same function as {canonical!r}; merged"
            )
    return substitution


def _semantic_passthrough(
    state: _State,
    node_of: Mapping[str, int],
    already: Mapping[str, str],
) -> dict[str, str]:
    """Gates whose function equals one of their operands collapse onto it."""
    substitution: dict[str, str] = {}
    for name in sorted(state.gates):
        if name in state.protected or name in already:
            continue
        gate = state.gates[name]
        for child in gate.children:
            if node_of[name] == node_of[child]:
                substitution[name] = child
                state.record(
                    "pass-through",
                    name,
                    f"function equals operand {child!r}; collapsed",
                )
                break
    return substitution


def _drop_vacuous_operands(
    state: _State, manager: BddManager, node_of: Mapping[str, int]
) -> None:
    """Greedily drop operands that leave the gate's function identical.

    Re-checks against the remaining operand list after each drop, so
    jointly-necessary but individually-vacuous pairs cannot both go.
    """
    for name in sorted(state.gates):
        gate = state.gates[name]
        if node_of[name] in (FALSE, TRUE):
            continue
        kept = list(gate.children)
        for operand in tuple(kept):
            if len(kept) < MIN_OPERANDS:
                break
            rest = [c for c in kept if c != operand]
            try:
                without = compose_gate(manager, gate, [node_of[c] for c in rest])
            except BddBudgetExceeded:
                state.budget_hit = True
                return
            if without is not None and without == node_of[name]:
                kept = rest
                state.record(
                    "vacuous-operand",
                    name,
                    f"operand {operand!r} does not change the gate's function",
                )
        if len(kept) != len(gate.children):
            state.gates[name] = replace(gate, children=tuple(kept))


# ----------------------------------------------------------------------
# Substitution and pruning
# ----------------------------------------------------------------------


def _substitute(state: _State, mapping: dict[str, str]) -> None:
    """Rewrite every child reference through ``mapping`` (chains resolved).

    AND/OR parents drop duplicates created by the substitution
    (idempotence).  An ATLEAST parent whose substitution would collide
    two voting inputs keeps its original child list unchanged instead —
    duplicate inputs would change the count semantics, and the
    referenced gates simply stay alive.
    """

    def resolve(name: str) -> str:
        seen = {name}
        while name in mapping:
            name = mapping[name]
            if name in seen:  # defensive: substitution cycles cannot happen
                break
            seen.add(name)
        return name

    for name, gate in list(state.gates.items()):
        targets = [resolve(child) for child in gate.children]
        if gate.gate_type is GateType.ATLEAST:
            if len(set(targets)) < len(targets):
                continue  # collision: keep the original voting inputs
            resolved = targets
        else:
            resolved = []
            for target in targets:
                if target not in resolved:
                    resolved.append(target)
        if tuple(resolved) != gate.children:
            state.gates[name] = replace(gate, children=tuple(resolved))


def _prune_pass(state: _State) -> None:
    """Drop gates unreachable from the top or any protected gate."""
    live: set[str] = set()
    queue = [root for root in state.protected if root in state.gates]
    while queue:
        name = queue.pop()
        if name in live:
            continue
        live.add(name)
        gate = state.gates.get(name)
        if gate is not None:
            queue.extend(gate.children)
    for name in sorted(set(state.gates) - live):
        del state.gates[name]
        state.record("prune", name, "gate no longer reachable from any root")


def _kept_events(state: _State, protected_events: frozenset[str]) -> dict[str, BasicEvent]:
    """Events still referenced by a gate, plus all protected (dynamic) ones."""
    referenced: set[str] = set(protected_events)
    for gate in state.gates.values():
        for child in gate.children:
            if child in state.events:
                referenced.add(child)
    dropped = sorted(set(state.events) - referenced)
    for name in dropped:
        state.record("prune", name, "event no longer referenced by any gate")
    return {name: state.events[name] for name in state.events if name in referenced}
