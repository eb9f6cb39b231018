"""Shared traversal state for one lint run.

Every rule reads from one :class:`LintContext`, so the expensive
structural facts — reachability, top-down paths, the never-fails /
always-fails fixpoints, per-chain reachability, worst-case event
probabilities, the trigger classification — are computed once per run
over one graph traversal each, not once per rule.  All members are
lazily cached; a run that disables the probabilistic rules never solves
a transient equation.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import TYPE_CHECKING, Hashable, Mapping

from repro.core.classify import ClassificationReport, classification_report
from repro.core.sdft import SdFaultTree
from repro.ctmc.chain import Ctmc
from repro.ctmc.triggered import TriggeredCtmc
from repro.errors import AnalysisError, NumericalError
from repro.ft.tree import FaultTree, Gate, GateType
from repro.lint.config import MCS_ESTIMATE_CAP, SEM_NODE_BUDGET, LintConfig

if TYPE_CHECKING:  # deferred: the sem package imports are lazy at runtime
    from repro.sem.bounds import BoundsReport
    from repro.sem.logic import LogicReport
    from repro.sem.rewrite import SimplifyResult
    from repro.sem.triggers import TriggerReport

__all__ = ["LintContext"]


class LintContext:
    """Read-only facts about one model, shared by every rule."""

    def __init__(self, sdft: SdFaultTree, config: LintConfig) -> None:
        self.sdft = sdft
        self.config = config

    @property
    def tree(self) -> FaultTree:
        """The structural (static) view of the model."""
        return self.sdft.structure

    # ------------------------------------------------------------------
    # Reachability and paths
    # ------------------------------------------------------------------

    @cached_property
    def reachable(self) -> frozenset[str]:
        """All node names reachable from the top gate, inclusive."""
        return self.tree.reachable_from_top()

    @cached_property
    def effective_reachable(self) -> frozenset[str]:
        """Nodes live for the analysis: tree reachability plus triggers.

        The static translation rewrites every triggered event ``b`` into
        ``AND(b, g)`` with ``g`` its triggering gate, so ``g``'s whole
        subtree contributes to cutsets even when no gate of the original
        tree references it.  A node outside this set is dead weight for
        any analysis of the model.
        """
        live: set[str] = set(self.reachable)
        changed = True
        while changed:
            changed = False
            for event_name, gate_name in self.sdft.trigger_of.items():
                if event_name in live and gate_name not in live:
                    live.add(gate_name)
                    live |= self.tree.gates_under(gate_name)
                    live |= self.tree.events_under(gate_name)
                    changed = True
        return frozenset(live)

    @cached_property
    def _predecessor(self) -> dict[str, str | None]:
        """BFS tree of the DAG from the top gate (shortest paths)."""
        predecessor: dict[str, str | None] = {self.tree.top: None}
        queue: deque[str] = deque((self.tree.top,))
        while queue:
            node = queue.popleft()
            for child in self.tree.children(node):
                if child not in predecessor:
                    predecessor[child] = node
                    queue.append(child)
        return predecessor

    def path_to(self, node: str) -> tuple[str, ...]:
        """Node names from the top gate down to ``node``.

        For a node unreachable from the top the path is ``(node,)`` —
        there is nothing meaningful to prefix it with.
        """
        if node not in self._predecessor:
            return (node,)
        path: list[str] = []
        cursor: str | None = node
        while cursor is not None:
            path.append(cursor)
            cursor = self._predecessor[cursor]
        return tuple(reversed(path))

    # ------------------------------------------------------------------
    # Structural constant-propagation (never-fails / always-fails)
    # ------------------------------------------------------------------

    @cached_property
    def never_fails(self) -> Mapping[str, bool]:
        """Whether each node can never fail, for any horizon.

        A static event never fails iff its probability is zero; a
        dynamic event never fails iff no failed state of its chain is
        reachable from the initial support (trigger switching included).
        Gates propagate bottom-up: an AND gate with a never-failing
        child, an OR gate with only never-failing children, an ATLEAST
        gate with fewer than ``k`` fallible children.
        """
        result: dict[str, bool] = {}
        for name, event in self.sdft.static_events.items():
            result[name] = event.probability == 0.0
        for name in self.sdft.dynamic_events:
            result[name] = not self.chain_can_fail(name)
        for gate in self.tree.gates_bottom_up():
            result[gate.name] = self._gate_never_fails(gate, result)
        return result

    @staticmethod
    def _gate_never_fails(gate: Gate, result: dict[str, bool]) -> bool:
        fallible = sum(1 for child in gate.children if not result[child])
        if gate.gate_type is GateType.AND:
            return fallible < len(gate.children)
        if gate.gate_type is GateType.OR:
            return fallible == 0
        assert gate.k is not None
        return fallible < gate.k

    @cached_property
    def always_fails(self) -> Mapping[str, bool]:
        """Whether each node is certainly failed from time zero on.

        A static event with probability one, or a dynamic event whose
        whole initial distribution lies in its failed states (the
        station-blackout "offsite power lost" shape).  Under the reach
        semantics failure is absorbing, so gates propagate exactly like
        boolean constants: any such child forces an OR gate, all of them
        force an AND gate, ``k`` of them force an ATLEAST gate.
        """
        result: dict[str, bool] = {}
        for name, event in self.sdft.static_events.items():
            result[name] = event.probability == 1.0
        for name, event in self.sdft.dynamic_events.items():
            chain = event.chain
            result[name] = all(state in chain.failed for state in chain.initial)
        for gate in self.tree.gates_bottom_up():
            certain = sum(1 for child in gate.children if result[child])
            if gate.gate_type is GateType.AND:
                result[gate.name] = certain == len(gate.children)
            elif gate.gate_type is GateType.OR:
                result[gate.name] = certain > 0
            else:
                assert gate.k is not None
                result[gate.name] = certain >= gate.k
        return result

    # ------------------------------------------------------------------
    # Per-chain facts
    # ------------------------------------------------------------------

    def chain_can_fail(self, event_name: str) -> bool:
        """Whether the dynamic event's chain can ever reach a failed state.

        Pure graph reachability over the positive-rate transitions plus
        the instantaneous trigger switches (``switch_on``/``switch_off``)
        — no transient solve, so this never fails numerically.
        """
        return self._chain_facts[event_name]

    @cached_property
    def _chain_facts(self) -> dict[str, bool]:
        by_chain: dict[int, bool] = {}
        result: dict[str, bool] = {}
        for name, event in self.sdft.dynamic_events.items():
            key = id(event.chain)
            if key not in by_chain:
                by_chain[key] = _can_reach_failed(event.chain)
            result[name] = by_chain[key]
        return result

    def max_exit_rate(self, chain: Ctmc) -> float:
        """The largest total outgoing rate over all states of ``chain``."""
        totals: dict[Hashable, float] = {}
        for (source, _), rate in chain.rates.items():
            totals[source] = totals.get(source, 0.0) + rate
        return max(totals.values(), default=0.0)

    # ------------------------------------------------------------------
    # Worst-case probabilities (the translation's numbers)
    # ------------------------------------------------------------------

    def worst_case(self, event_name: str) -> float | None:
        """Worst-case failure probability of any basic event at the horizon.

        Static events return their probability; dynamic events the
        first-passage probability of their (switched-on) chain — the
        exact number the static translation would assign.  ``None``
        when the transient solve fails numerically: the probabilistic
        rules then skip the event instead of crashing the linter.
        """
        return self._worst_case_probabilities.get(event_name)

    @cached_property
    def _worst_case_probabilities(self) -> dict[str, float | None]:
        from repro.core.worst_case import worst_case_probability

        result: dict[str, float | None] = {
            name: event.probability
            for name, event in self.sdft.static_events.items()
        }
        by_chain: dict[int, float | None] = {}
        for name, event in self.sdft.dynamic_events.items():
            key = id(event.chain)
            if key not in by_chain:
                if not self.chain_can_fail(name):
                    by_chain[key] = 0.0
                else:
                    try:
                        by_chain[key] = worst_case_probability(
                            event.chain, self.config.horizon
                        )
                    except (NumericalError, AnalysisError, ValueError):
                        by_chain[key] = None
            result[name] = by_chain[key]
        return result

    # ------------------------------------------------------------------
    # Classification preview
    # ------------------------------------------------------------------

    @cached_property
    def classification(self) -> ClassificationReport:
        """The per-trigger classification of :mod:`repro.core.classify`."""
        return classification_report(self.sdft)

    # ------------------------------------------------------------------
    # Semantic analyses (repro.sem) for the SD5xx rules
    # ------------------------------------------------------------------

    @cached_property
    def sem_constants(self) -> dict[str, bool]:
        """Static events pinned to a boolean constant by their probability.

        Dynamic events are *never* constants here: their placeholder
        probability in the structural view is 0.0 by construction, not
        by meaning.
        """
        return {
            name: event.probability == 1.0
            for name, event in self.sdft.static_events.items()
            if event.probability in (0.0, 1.0)
        }

    @cached_property
    def logic(self) -> "LogicReport | None":
        """BDD-verified logical diagnostics; ``None`` on budget overrun."""
        from repro.errors import BddBudgetExceeded
        from repro.sem.logic import logical_diagnostics

        try:
            return logical_diagnostics(
                self.tree,
                constants=self.sem_constants,
                node_budget=SEM_NODE_BUDGET,
            )
        except BddBudgetExceeded:
            return None

    @cached_property
    def trigger_report(self) -> "TriggerReport":
        """The trigger dependency graph and its order-sensitive races."""
        from repro.sem.triggers import analyze_triggers

        return analyze_triggers(self.sdft)

    @cached_property
    def bounds(self) -> "BoundsReport":
        """Interval bounds on every node, dynamic events at worst case."""
        from repro.sem.bounds import interval_bounds

        worst: dict[str, float] = {}
        for name in self.sdft.dynamic_events:
            probability = self.worst_case(name)
            if probability is not None:
                worst[name] = probability
        return interval_bounds(
            self.tree, dynamic=self.sdft.dynamic_events, worst_case=worst
        )

    @cached_property
    def simplify_preview(self) -> "SimplifyResult | None":
        """A dry run of the rewrite engine; ``None`` if it cannot verify."""
        from repro.errors import AnalysisError
        from repro.sem.rewrite import simplify

        try:
            result = simplify(self.sdft, node_budget=SEM_NODE_BUDGET)
        except AnalysisError:
            return None
        return None if result.budget_hit else result

    # ------------------------------------------------------------------
    # Cutset-count estimate
    # ------------------------------------------------------------------

    def mcs_estimate(self, node: str) -> int:
        """A capped upper bound on the cutsets of the subtree at ``node``.

        Counts AND/OR/ATLEAST combinations of basic events bottom-up
        (OR sums, AND multiplies, ATLEAST runs the subset DP), ignoring
        minimality and shared subtrees — so it over-counts, which is the
        right direction for a "this will be slow" preview.  Saturates at
        :data:`~repro.lint.config.MCS_ESTIMATE_CAP`.
        """
        return self._mcs_estimates[node]

    @cached_property
    def _mcs_estimates(self) -> dict[str, int]:
        cap = MCS_ESTIMATE_CAP
        estimates: dict[str, int] = {name: 1 for name in self.sdft.all_event_names}
        for gate in self.tree.gates_bottom_up():
            counts = [estimates[child] for child in gate.children]
            if gate.gate_type is GateType.OR:
                value = min(sum(counts), cap)
            elif gate.gate_type is GateType.AND:
                value = _saturating_product(counts, cap)
            else:
                assert gate.k is not None
                value = _atleast_count(counts, gate.k, cap)
            estimates[gate.name] = value
        return estimates


def _can_reach_failed(chain: Ctmc) -> bool:
    """Reachability of the failed set from the chain's initial support."""
    if not chain.failed:
        return False
    successors: dict[Hashable, list[Hashable]] = {}
    for source, destination in chain.rates:
        successors.setdefault(source, []).append(destination)
    if isinstance(chain, TriggeredCtmc):
        for source, destination in chain.switch_on.items():
            successors.setdefault(source, []).append(destination)
        for source, destination in chain.switch_off.items():
            successors.setdefault(source, []).append(destination)
    seen: set[Hashable] = set(chain.initial)
    queue: deque[Hashable] = deque(chain.initial)
    while queue:
        state = queue.popleft()
        if state in chain.failed:
            return True
        for successor in successors.get(state, ()):
            if successor not in seen:
                seen.add(successor)
                queue.append(successor)
    return False


def _saturating_product(counts: list[int], cap: int) -> int:
    value = 1
    for count in counts:
        value *= count
        if value >= cap:
            return cap
    return value


def _atleast_count(counts: list[int], k: int, cap: int) -> int:
    """Combinations picking >= k children, each child weighted by its count.

    Dynamic programming over ``(children, picked)``; the ``picked >= k``
    overflow is folded into the bucket at ``k`` (further picks multiply
    into it), matching the "at least" semantics.
    """
    buckets = [0] * (k + 1)
    buckets[0] = 1
    for count in counts:
        updated = list(buckets)
        for picked in range(k, -1, -1):
            if buckets[picked] == 0:
                continue
            target = min(picked + 1, k)
            updated[target] = min(updated[target] + buckets[picked] * count, cap)
        buckets = updated
    return min(buckets[k], cap)
