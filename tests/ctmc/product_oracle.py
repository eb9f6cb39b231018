"""The label-dict product builder, kept as the oracle of the integer core.

This is the product construction as it was written before
:mod:`repro.ctmc.product` moved onto integer codes: product states are
tuples of local-state labels, gate status is re-evaluated per state over
a name-keyed dict, and trigger updates and moves walk the event chains
directly.  It is slow and obviously faithful to Section III-C, which is
what an oracle should be; the tests assert that the coded builder
produces exactly its output, element for element and in the same order.
"""

from __future__ import annotations

import itertools

from repro.errors import AnalysisError
from repro.ft.tree import GateType


class LabelSemantics:
    """Gate status, trigger updates and moves on label tuples."""

    def __init__(self, sdft) -> None:
        self.sdft = sdft
        self.order = tuple(sorted(sdft.all_event_names))
        self.position = {n: i for i, n in enumerate(self.order)}
        self.failed_local = {}
        for name in self.order:
            if sdft.is_static(name):
                self.failed_local[name] = frozenset(["fail"])
            else:
                self.failed_local[name] = sdft.chain_of(name).failed
        self._gate_order = list(sdft.structure.gates_bottom_up())
        self._triggered = [
            (name, sdft.trigger_of[name], sdft.chain_of(name))
            for name in sorted(sdft.trigger_of)
        ]

    def gate_status(self, state: tuple) -> dict[str, bool]:
        status: dict[str, bool] = {}
        for i, name in enumerate(self.order):
            status[name] = state[i] in self.failed_local[name]
        for gate in self._gate_order:
            failed_inputs = sum(status[c] for c in gate.children)
            if gate.gate_type is GateType.AND:
                status[gate.name] = failed_inputs == len(gate.children)
            elif gate.gate_type is GateType.OR:
                status[gate.name] = failed_inputs > 0
            else:
                status[gate.name] = failed_inputs >= gate.k
        return status

    def fails_top(self, state: tuple) -> bool:
        return self.gate_status(state)[self.sdft.top]

    def make_consistent(self, state: tuple) -> tuple:
        current = list(state)
        for _ in range(len(self._triggered) + 1):
            status = self.gate_status(tuple(current))
            changed = False
            for event_name, gate_name, chain in self._triggered:
                i = self.position[event_name]
                updated = chain.apply_trigger(current[i], status[gate_name])
                if updated != current[i]:
                    current[i] = updated
                    changed = True
            if not changed:
                return tuple(current)
        raise AnalysisError("trigger updates did not converge")

    def local_transitions(self, state: tuple) -> list[tuple[str, object, float]]:
        moves = []
        for name in self.sdft.dynamic_events:
            i = self.position[name]
            for destination, rate in self.sdft.chain_of(name).successors(state[i]):
                moves.append((name, destination, rate))
        return moves

    def initial_states(self) -> list[tuple[tuple, float]]:
        supports = []
        for name in self.order:
            if self.sdft.is_static(name):
                p = self.sdft.static_events[name].probability
                entries = []
                if p < 1.0:
                    entries.append(("ok", 1.0 - p))
                if p > 0.0:
                    entries.append(("fail", p))
                supports.append(entries)
            else:
                chain = self.sdft.chain_of(name)
                supports.append(sorted(chain.initial.items(), key=lambda x: str(x[0])))
        accumulated: dict[tuple, float] = {}
        for combo in itertools.product(*supports):
            state = tuple(local for local, _ in combo)
            probability = 1.0
            for _, p in combo:
                probability *= p
            consistent = self.make_consistent(state)
            accumulated[consistent] = accumulated.get(consistent, 0.0) + probability
        return sorted(accumulated.items(), key=lambda kv: str(kv[0]))


def build_product_oracle(sdft, max_states: int = 200_000):
    """``(states, initial, rates, failed, transition_events)`` of ``C_FT``.

    Depth-first from the initial distribution, exactly the exploration
    order :func:`repro.ctmc.product.build_product` keeps.
    """
    semantics = LabelSemantics(sdft)
    initial = semantics.initial_states()
    rates: dict[tuple, float] = {}
    by_event: dict[tuple, dict[str, float]] = {}
    states: list[tuple] = []
    seen: set[tuple] = set()
    frontier = [state for state, _ in initial]
    seen.update(frontier)
    while frontier:
        state = frontier.pop()
        states.append(state)
        if len(states) > max_states:
            raise AnalysisError(f"product chain exceeds max_states={max_states}")
        for event_name, destination, rate in semantics.local_transitions(state):
            moved = list(state)
            moved[semantics.position[event_name]] = destination
            target = semantics.make_consistent(tuple(moved))
            if target == state:
                continue
            key = (state, target)
            rates[key] = rates.get(key, 0.0) + rate
            split = by_event.setdefault(key, {})
            split[event_name] = split.get(event_name, 0.0) + rate
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    failed = [s for s in states if semantics.fails_top(s)]
    return states, dict(initial), rates, failed, by_event
