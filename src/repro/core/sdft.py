"""SD fault trees: static and dynamic basic events in one model.

The paper's central formalism (Section III-B).  An SD fault tree is a
fault-tree DAG whose leaves are partitioned into *static* basic events
(a plain failure probability) and *dynamic* basic events (a CTMC
describing degradation and repair over time).  A failure of any gate may
*trigger* one or more dynamic basic events — switching their chains from
off-states to on-states — and a recovery of the gate untriggers them.

Structural invariants enforced here (all from Section III-B):

* every dynamic basic event is triggered by at most one gate;
* triggered events carry a :class:`~repro.ctmc.triggered.TriggeredCtmc`
  (untriggered dynamic events carry a plain chain that starts on);
* the fault-tree DAG extended with *reversed* trigger edges
  ``(event -> triggering gate)`` is acyclic, ruling out triggering
  deadlocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.ctmc.chain import Ctmc
from repro.ctmc.triggered import TriggeredCtmc
from repro.errors import (
    CyclicModelError,
    DuplicateNameError,
    ModelError,
    TriggerError,
    UnknownNodeError,
)
from repro.ft.tree import BasicEvent, FaultTree, Gate, GateType

__all__ = ["DynamicBasicEvent", "SdFaultTree", "SdFaultTreeBuilder", "as_sdft"]


@dataclass(frozen=True)
class DynamicBasicEvent:
    """A dynamic basic event: a name bound to a failure CTMC.

    ``chain`` is a plain :class:`~repro.ctmc.chain.Ctmc` for events that
    operate from time zero, or a :class:`~repro.ctmc.triggered.TriggeredCtmc`
    for events switched on by a trigger.
    """

    name: str
    chain: Ctmc
    description: str = ""

    @property
    def is_triggerable(self) -> bool:
        """Whether the chain has on/off structure (can be a trigger target)."""
        return isinstance(self.chain, TriggeredCtmc)


class SdFaultTree:
    """An immutable SD fault tree.

    Parameters
    ----------
    top:
        Name of the top gate.
    static_events:
        The static basic events with their probabilities.
    dynamic_events:
        The dynamic basic events with their chains.
    gates:
        The gate structure (shared :class:`~repro.ft.tree.Gate` objects).
    triggers:
        Mapping from gate name to the dynamic basic events it triggers.
    """

    def __init__(
        self,
        top: str,
        static_events: Iterable[BasicEvent],
        dynamic_events: Iterable[DynamicBasicEvent],
        gates: Iterable[Gate],
        triggers: Mapping[str, Iterable[str]] | None = None,
        name: str = "sd-fault-tree",
    ) -> None:
        self.name = name
        self.static_events: dict[str, BasicEvent] = {}
        for event in static_events:
            if event.name in self.static_events:
                raise DuplicateNameError(f"duplicate static event {event.name!r}")
            self.static_events[event.name] = event
        self.dynamic_events: dict[str, DynamicBasicEvent] = {}
        for event in dynamic_events:
            if event.name in self.dynamic_events or event.name in self.static_events:
                raise DuplicateNameError(f"duplicate event {event.name!r}")
            self.dynamic_events[event.name] = event

        # The structural view: one static FaultTree over *all* basic
        # events.  Dynamic events get probability 0 here — the view is
        # used for structure only, never for quantification.
        placeholder = [
            BasicEvent(e.name, 0.0, e.description)
            for e in self.dynamic_events.values()
        ]
        self.structure = FaultTree(
            top,
            list(self.static_events.values()) + placeholder,
            gates,
            name=name,
        )
        self.top = top

        self.triggers: dict[str, tuple[str, ...]] = {}
        self.trigger_of: dict[str, str] = {}
        for gate_name, events in (triggers or {}).items():
            if not self.structure.is_gate(gate_name):
                raise UnknownNodeError(
                    f"trigger source {gate_name!r} is not a gate of the tree"
                )
            event_names = tuple(events)
            if not event_names:
                continue
            self.triggers[gate_name] = event_names
            for event_name in event_names:
                if event_name in self.trigger_of:
                    raise TriggerError(
                        f"dynamic event {event_name!r} is triggered by both "
                        f"{self.trigger_of[event_name]!r} and {gate_name!r}; "
                        f"connect the gates with a new OR gate and let that "
                        f"gate be the trigger"
                    )
                self.trigger_of[event_name] = gate_name
        self._validate_triggers()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def _validate_triggers(self) -> None:
        for event_name, gate_name in self.trigger_of.items():
            event = self.dynamic_events.get(event_name)
            if event is None:
                raise TriggerError(
                    f"trigger target {event_name!r} is not a dynamic basic event"
                )
            if not event.is_triggerable:
                raise TriggerError(
                    f"dynamic event {event_name!r} is triggered by "
                    f"{gate_name!r} but its chain has no on/off structure "
                    f"(use a TriggeredCtmc)"
                )
        for event in self.dynamic_events.values():
            if event.is_triggerable and event.name not in self.trigger_of:
                raise TriggerError(
                    f"dynamic event {event.name!r} has a triggered chain but "
                    f"no gate triggers it"
                )
        self._check_trigger_acyclic()

    def _check_trigger_acyclic(self) -> None:
        """Reject cyclic triggering (Section III-B).

        The tree edges point from gates to children; a trigger adds the
        *reversed* edge from the triggered event up to its triggering
        gate.  A cycle in the combined graph is a triggering deadlock.
        """
        successors: dict[str, list[str]] = {}
        for gate in self.structure.gates.values():
            successors[gate.name] = list(gate.children)
        for event_name, gate_name in self.trigger_of.items():
            successors.setdefault(event_name, []).append(gate_name)

        # Iterative three-colour DFS over the combined graph.
        WHITE, GREY, BLACK = 0, 1, 2
        colour: dict[str, int] = {}
        for start in successors:
            if colour.get(start, WHITE) != WHITE:
                continue
            stack: list[tuple[str, int]] = [(start, 0)]
            colour[start] = GREY
            while stack:
                node, child_index = stack[-1]
                children = successors.get(node, [])
                if child_index == len(children):
                    colour[node] = BLACK
                    stack.pop()
                    continue
                stack[-1] = (node, child_index + 1)
                child = children[child_index]
                state = colour.get(child, WHITE)
                if state == GREY:
                    raise CyclicModelError(
                        f"cyclic triggering detected through {child!r}: a group "
                        f"of dynamic events can only fail after each other"
                    )
                if state == WHITE:
                    colour[child] = GREY
                    stack.append((child, 0))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def gates(self) -> Mapping[str, Gate]:
        """All gates, keyed by name."""
        return self.structure.gates

    @property
    def all_event_names(self) -> frozenset[str]:
        """Names of all basic events, static and dynamic."""
        return frozenset(self.static_events) | frozenset(self.dynamic_events)

    def is_dynamic(self, name: str) -> bool:
        """Whether ``name`` is a dynamic basic event."""
        return name in self.dynamic_events

    def is_static(self, name: str) -> bool:
        """Whether ``name`` is a static basic event."""
        return name in self.static_events

    def dynamic_under(self, gate_name: str) -> frozenset[str]:
        """Dynamic basic events in the subtree of ``gate_name`` (``Dyn_a``)."""
        return frozenset(
            n for n in self.structure.events_under(gate_name) if self.is_dynamic(n)
        )

    def dynamic_under_node(self, name: str) -> bool:
        """Whether the node (gate or event) has a dynamic event in its subtree.

        A gate with this property is called *dynamic* in Section V-A; for
        a basic event the check degenerates to "is it dynamic itself".
        """
        return any(self.is_dynamic(n) for n in self.structure.events_under(name))

    def static_under(self, gate_name: str) -> frozenset[str]:
        """Static basic events in the subtree of ``gate_name`` (``Sta_a``)."""
        return frozenset(
            n for n in self.structure.events_under(gate_name) if self.is_static(n)
        )

    def chain_of(self, event_name: str) -> Ctmc:
        """The CTMC of a dynamic basic event."""
        try:
            return self.dynamic_events[event_name].chain
        except KeyError:
            raise UnknownNodeError(
                f"{event_name!r} is not a dynamic basic event"
            ) from None

    def triggered_events(self) -> frozenset[str]:
        """Names of all dynamic events that have a triggering gate."""
        return frozenset(self.trigger_of)

    def __repr__(self) -> str:
        return (
            f"SdFaultTree({self.name!r}, {len(self.static_events)} static, "
            f"{len(self.dynamic_events)} dynamic, "
            f"{len(self.structure.gates)} gates, "
            f"{len(self.trigger_of)} triggered)"
        )


def as_sdft(model: SdFaultTree | FaultTree) -> SdFaultTree:
    """``model`` as an SD fault tree: a static tree is promoted to one
    with no dynamic events and no triggers."""
    if isinstance(model, SdFaultTree):
        return model
    return SdFaultTree(
        model.top, model.events.values(), [], model.gates.values(), {}, name=model.name
    )


class SdFaultTreeBuilder:
    """Fluent construction of :class:`SdFaultTree` models.

    Mirrors :class:`repro.ft.builder.FaultTreeBuilder` with two extra
    declarations: :meth:`dynamic_event` and :meth:`trigger`.
    """

    def __init__(self, name: str = "sd-fault-tree") -> None:
        self.name = name
        self._static: dict[str, BasicEvent] = {}
        self._dynamic: dict[str, DynamicBasicEvent] = {}
        self._gates: dict[str, Gate] = {}
        self._triggers: dict[str, list[str]] = {}

    def static_event(
        self, name: str, probability: float, description: str = ""
    ) -> "SdFaultTreeBuilder":
        """Declare a static basic event."""
        self._check_fresh(name)
        self._static[name] = BasicEvent(name, probability, description)
        return self

    def dynamic_event(
        self, name: str, chain: Ctmc, description: str = ""
    ) -> "SdFaultTreeBuilder":
        """Declare a dynamic basic event with its CTMC."""
        self._check_fresh(name)
        self._dynamic[name] = DynamicBasicEvent(name, chain, description)
        return self

    def gate(
        self,
        name: str,
        gate_type: GateType,
        children: Iterable[str],
        k: int | None = None,
        description: str = "",
    ) -> "SdFaultTreeBuilder":
        """Declare a gate of an explicit type."""
        self._check_fresh(name)
        self._gates[name] = Gate(name, gate_type, tuple(children), k, description)
        return self

    def and_(self, name: str, *children: str, description: str = "") -> "SdFaultTreeBuilder":
        """Declare an AND gate."""
        return self.gate(name, GateType.AND, children, description=description)

    def or_(self, name: str, *children: str, description: str = "") -> "SdFaultTreeBuilder":
        """Declare an OR gate."""
        return self.gate(name, GateType.OR, children, description=description)

    def atleast(
        self, name: str, k: int, *children: str, description: str = ""
    ) -> "SdFaultTreeBuilder":
        """Declare a k-of-n voting gate."""
        return self.gate(name, GateType.ATLEAST, children, k=k, description=description)

    def has_node(self, name: str) -> bool:
        """Return whether a node of this name has been declared."""
        return (
            name in self._static or name in self._dynamic or name in self._gates
        )

    def trigger(self, gate_name: str, *event_names: str) -> "SdFaultTreeBuilder":
        """Declare that a failure of ``gate_name`` triggers the given events."""
        if not event_names:
            raise ModelError("trigger() needs at least one event name")
        self._triggers.setdefault(gate_name, []).extend(event_names)
        return self

    def build(self, top: str) -> SdFaultTree:
        """Assemble and validate the SD fault tree."""
        return SdFaultTree(
            top,
            self._static.values(),
            self._dynamic.values(),
            self._gates.values(),
            self._triggers,
            name=self.name,
        )

    def _check_fresh(self, name: str) -> None:
        if name in self._static or name in self._dynamic or name in self._gates:
            raise DuplicateNameError(f"node {name!r} declared twice")
