"""Static fault-tree model.

A (coherent) static fault tree is a finite DAG whose leaves are *basic
events* carrying a failure probability and whose inner nodes are *gates*
of type AND, OR or ATLEAST (k-of-n voting).  A distinguished gate is the
*top gate* and models failure of the complete system (paper, Section II).

The classes here are deliberately plain data: :class:`BasicEvent` and
:class:`Gate` are frozen dataclasses and :class:`FaultTree` is an
immutable container with cached structural queries (parents, topological
order, per-gate descendant sets).  Use :class:`repro.ft.builder.FaultTreeBuilder`
to construct trees conveniently and :func:`repro.lint.lint` to check
structural soundness beyond the hard invariants.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.errors import (
    CyclicModelError,
    DuplicateNameError,
    InvalidProbabilityError,
    ModelError,
    UnknownNodeError,
)

__all__ = ["GateType", "BasicEvent", "Gate", "FaultTree"]


class GateType(enum.Enum):
    """The logic implemented by a gate.

    ``AND`` fails when all inputs fail, ``OR`` when at least one input
    fails, ``ATLEAST`` (a k-of-n voting gate) when at least ``k`` inputs
    fail.  ATLEAST is standard in probabilistic safety assessment models;
    it is not part of the paper's minimal formalism but normalises to
    AND/OR (see :mod:`repro.ft.normalize`), so every algorithm in this
    package supports it either natively or after normalisation.
    """

    AND = "and"
    OR = "or"
    ATLEAST = "atleast"


@dataclass(frozen=True)
class BasicEvent:
    """A leaf of the fault tree: an atomic failure with a probability.

    Parameters
    ----------
    name:
        Unique identifier within the tree.
    probability:
        Probability that the event is failed (per mission), in ``[0, 1]``.
    description:
        Optional human-readable description; carried through analyses
        and reports but never interpreted.
    """

    name: str
    probability: float
    description: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise InvalidProbabilityError(
                f"basic event {self.name!r}: probability {self.probability} "
                f"is outside [0, 1]"
            )


@dataclass(frozen=True)
class Gate:
    """An inner node of the fault tree.

    Parameters
    ----------
    name:
        Unique identifier within the tree.
    gate_type:
        One of :class:`GateType`.
    children:
        Names of the gate's inputs (gates or basic events).  Order is
        preserved but carries no semantics.
    k:
        Voting threshold, required iff ``gate_type`` is ``ATLEAST``.
    """

    name: str
    gate_type: GateType
    children: tuple[str, ...]
    k: int | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.children:
            raise ModelError(f"gate {self.name!r} has no inputs")
        if len(set(self.children)) != len(self.children):
            raise ModelError(f"gate {self.name!r} lists a child twice")
        if self.gate_type is GateType.ATLEAST:
            if self.k is None:
                raise ModelError(f"ATLEAST gate {self.name!r} needs k")
            if not 1 <= self.k <= len(self.children):
                raise ModelError(
                    f"ATLEAST gate {self.name!r}: k={self.k} is outside "
                    f"[1, {len(self.children)}]"
                )
        elif self.k is not None:
            raise ModelError(
                f"gate {self.name!r} of type {self.gate_type.value} must not set k"
            )


@dataclass(frozen=True)
class _Caches:
    """Mutable lazily-filled caches hidden inside the frozen tree."""

    parents: dict[str, tuple[str, ...]] | None = None
    order: tuple[str, ...] | None = None
    events_under: dict[str, frozenset[str]] = field(default_factory=dict)
    gates_under: dict[str, frozenset[str]] = field(default_factory=dict)


class FaultTree:
    """An immutable static fault tree.

    The constructor checks that names are unique, every referenced child
    exists, the graph is acyclic, and the top node is a gate.  All heavy
    structural queries are cached after first use; the tree itself never
    changes, so the caches stay valid.
    """

    def __init__(
        self,
        top: str,
        events: Iterable[BasicEvent],
        gates: Iterable[Gate],
        name: str = "fault-tree",
    ) -> None:
        self.name = name
        self._events: dict[str, BasicEvent] = {}
        self._gates: dict[str, Gate] = {}
        for event in events:
            if event.name in self._events:
                raise DuplicateNameError(f"duplicate basic event {event.name!r}")
            self._events[event.name] = event
        for gate in gates:
            if gate.name in self._gates or gate.name in self._events:
                raise DuplicateNameError(f"duplicate node {gate.name!r}")
            self._gates[gate.name] = gate
        for gate in self._gates.values():
            for child in gate.children:
                if child not in self._gates and child not in self._events:
                    raise UnknownNodeError(
                        f"gate {gate.name!r} references unknown node {child!r}"
                    )
        if top not in self._gates:
            raise ModelError(f"top node {top!r} is not a gate of the tree")
        self.top = top
        self._caches = _Caches()
        # Computing the order up front doubles as the acyclicity check.
        self._caches = _Caches(order=self._toposort())

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def events(self) -> Mapping[str, BasicEvent]:
        """All basic events, keyed by name."""
        return self._events

    @property
    def gates(self) -> Mapping[str, Gate]:
        """All gates, keyed by name."""
        return self._gates

    def is_event(self, name: str) -> bool:
        """Return whether ``name`` is a basic event of this tree."""
        return name in self._events

    def is_gate(self, name: str) -> bool:
        """Return whether ``name`` is a gate of this tree."""
        return name in self._gates

    def children(self, name: str) -> tuple[str, ...]:
        """Children of a gate; a basic event has none."""
        gate = self._gates.get(name)
        if gate is not None:
            return gate.children
        if name in self._events:
            return ()
        raise UnknownNodeError(f"unknown node {name!r}")

    def probability(self, event_name: str) -> float:
        """Failure probability of a basic event."""
        try:
            return self._events[event_name].probability
        except KeyError:
            raise UnknownNodeError(f"unknown basic event {event_name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._events or name in self._gates

    def __repr__(self) -> str:
        return (
            f"FaultTree({self.name!r}, top={self.top!r}, "
            f"{len(self._events)} events, {len(self._gates)} gates)"
        )

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------

    def parents(self, name: str) -> tuple[str, ...]:
        """Gates that list ``name`` among their children."""
        if self._caches.parents is None:
            parent_lists: dict[str, list[str]] = {n: [] for n in self._iter_names()}
            for gate in self._gates.values():
                for child in gate.children:
                    parent_lists[child].append(gate.name)
            self._caches = _Caches(
                parents={n: tuple(ps) for n, ps in parent_lists.items()},
                order=self._caches.order,
                events_under=self._caches.events_under,
                gates_under=self._caches.gates_under,
            )
        try:
            return self._caches.parents[name]  # type: ignore[index]
        except KeyError:
            raise UnknownNodeError(f"unknown node {name!r}") from None

    def topological_order(self) -> tuple[str, ...]:
        """All node names ordered children-before-parents.

        Basic events come first (they have no children); the last gate in
        the order that lies under the top gate is the top gate itself.
        Nodes unreachable from the top are still included.
        """
        assert self._caches.order is not None
        return self._caches.order

    def gates_bottom_up(self) -> Iterator[Gate]:
        """Iterate over gates so that every child gate precedes its parents."""
        for name in self.topological_order():
            gate = self._gates.get(name)
            if gate is not None:
                yield gate

    def events_under(self, gate_name: str) -> frozenset[str]:
        """Names of all basic events in the subtree rooted at ``gate_name``.

        For a basic event argument, the result is the singleton of itself,
        which lets callers treat leaves and gates uniformly.
        """
        if gate_name in self._events:
            return frozenset((gate_name,))
        cached = self._caches.events_under.get(gate_name)
        if cached is not None:
            return cached
        self._gate_or_raise(gate_name)
        cache = self._caches.events_under
        for name in self._gates_below(gate_name):
            if name in cache:
                continue
            collected: set[str] = set()
            for child in self._gates[name].children:
                if child in self._events:
                    collected.add(child)
                else:
                    collected |= cache[child]
            cache[name] = frozenset(collected)
        return cache[gate_name]

    def gates_under(self, gate_name: str) -> frozenset[str]:
        """Names of all gates in the subtree rooted at ``gate_name``, inclusive."""
        if gate_name in self._events:
            return frozenset()
        cached = self._caches.gates_under.get(gate_name)
        if cached is not None:
            return cached
        self._gate_or_raise(gate_name)
        cache = self._caches.gates_under
        for name in self._gates_below(gate_name):
            if name in cache:
                continue
            collected = {name}
            for child in self._gates[name].children:
                if child in self._gates:
                    collected |= cache[child]
            cache[name] = frozenset(collected)
        return cache[gate_name]

    def _gates_below(self, gate_name: str) -> list[str]:
        """Gates at or below ``gate_name``, children before parents.

        Iterative (reachability sweep filtered through the cached global
        topological order), so chain trees thousands of gates deep never
        touch the recursion limit — these queries sit on the compile
        path of the BDD static engine.
        """
        below: set[str] = set()
        stack = [gate_name]
        while stack:
            name = stack.pop()
            if name in below or name not in self._gates:
                continue
            below.add(name)
            stack.extend(self._gates[name].children)
        return [name for name in self.topological_order() if name in below]

    def descendants(self, gate_name: str) -> frozenset[str]:
        """All node names strictly below ``gate_name`` (gates and events)."""
        return (self.gates_under(gate_name) - {gate_name}) | self.events_under(
            gate_name
        )

    def reachable_from_top(self) -> frozenset[str]:
        """Names of all nodes reachable from the top gate, inclusive.

        A plain sweep rather than ``gates_under | events_under``: those
        materialise one set per gate (quadratic on chain-shaped trees),
        while reachability only needs the union.
        """
        reachable: set[str] = set()
        stack = [self.top]
        while stack:
            name = stack.pop()
            if name in reachable:
                continue
            reachable.add(name)
            gate = self._gates.get(name)
            if gate is not None:
                stack.extend(gate.children)
        return frozenset(reachable)

    # ------------------------------------------------------------------
    # Derived trees
    # ------------------------------------------------------------------

    def with_probabilities(self, updates: Mapping[str, float]) -> "FaultTree":
        """Return a copy with the probabilities of some events replaced.

        ``updates`` maps basic-event names to new probabilities.  Unknown
        names raise; unlisted events keep their probability.
        """
        for name in updates:
            if name not in self._events:
                raise UnknownNodeError(f"unknown basic event {name!r}")
        events = [
            BasicEvent(e.name, updates.get(e.name, e.probability), e.description)
            for e in self._events.values()
        ]
        return FaultTree(self.top, events, self._gates.values(), name=self.name)

    def subtree(self, gate_name: str, name: str | None = None) -> "FaultTree":
        """Return the fault tree rooted at ``gate_name``.

        The result shares node objects with this tree but contains only
        the nodes of the chosen subtree.
        """
        self._gate_or_raise(gate_name)
        gate_names = self.gates_under(gate_name)
        event_names = self.events_under(gate_name)
        return FaultTree(
            gate_name,
            [self._events[n] for n in sorted(event_names)],
            [self._gates[n] for n in sorted(gate_names)],
            name=name or f"{self.name}/{gate_name}",
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _iter_names(self) -> Iterator[str]:
        yield from self._events
        yield from self._gates

    def _gate_or_raise(self, name: str) -> Gate:
        gate = self._gates.get(name)
        if gate is None:
            raise UnknownNodeError(f"node {name!r} is not a gate of the tree")
        return gate

    def _toposort(self) -> tuple[str, ...]:
        """Kahn's algorithm; raises :class:`CyclicModelError` on a cycle."""
        remaining_children = {
            name: len(gate.children) for name, gate in self._gates.items()
        }
        order: list[str] = sorted(self._events)
        queue = [
            name for name, count in sorted(remaining_children.items()) if count == 0
        ]
        parent_lists: dict[str, list[str]] = {n: [] for n in self._iter_names()}
        for gate in self._gates.values():
            for child in gate.children:
                parent_lists[child].append(gate.name)
        # Events are sources: process their parents first.
        for event_name in sorted(self._events):
            for parent in parent_lists[event_name]:
                remaining_children[parent] -= 1
                if remaining_children[parent] == 0:
                    queue.append(parent)
        while queue:
            name = queue.pop()
            order.append(name)
            for parent in parent_lists[name]:
                remaining_children[parent] -= 1
                if remaining_children[parent] == 0:
                    queue.append(parent)
        if len(order) != len(self._events) + len(self._gates):
            stuck = sorted(n for n, c in remaining_children.items() if c > 0)
            raise CyclicModelError(f"fault tree contains a cycle through {stuck}")
        return tuple(order)
