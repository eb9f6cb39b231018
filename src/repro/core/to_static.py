"""Translation of an SD fault tree into a static one (Section V-B).

The static tree ``FT̄`` has the same minimal cutsets as the SD tree and
feeds the unmodified MOCUS machinery:

* every dynamic basic event becomes a static basic event whose
  probability is the worst case of :mod:`repro.core.worst_case`;
* every trigger edge ``g --> b`` becomes an AND gate: each reference to
  ``b`` in the tree is redirected to a fresh gate ``AND(b, g)`` — the
  event can only contribute to a cutset together with its trigger.

Acyclicity of the construction is inherited from the SD tree's
requirement that the trigger-extended graph is acyclic: an edge from the
new AND gate to ``g`` mirrors exactly the reversed trigger edge
``b -> g``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.sdft import SdFaultTree
from repro.core.worst_case import worst_case_probabilities
from repro.ft.tree import BasicEvent, FaultTree, Gate, GateType

__all__ = ["StaticTranslation", "to_static"]

#: Suffix of the AND gates introduced for trigger edges.
TRIGGER_GATE_SUFFIX = "#triggered"


@dataclass(frozen=True)
class StaticTranslation:
    """The static tree ``FT̄`` plus the data used to build it.

    ``worst_case`` maps each dynamic event to the probability assigned
    to its static replacement — useful for diagnostics and for reusing
    the transient computations later in the pipeline.
    """

    tree: FaultTree
    worst_case: dict[str, float]


def to_static(
    sdft: SdFaultTree,
    horizon: float,
    solved: Mapping[str, float] | None = None,
) -> StaticTranslation:
    """Build the static tree ``FT̄`` of ``sdft`` for the given horizon.

    ``solved`` maps chain fingerprints to worst cases already computed at
    this horizon (see :func:`~repro.core.worst_case.worst_case_probabilities`).
    """
    worst_case = worst_case_probabilities(sdft, horizon, solved=solved)

    events: list[BasicEvent] = list(sdft.static_events.values())
    for name, event in sdft.dynamic_events.items():
        events.append(
            BasicEvent(name, worst_case[name], event.description or f"dynamic {name}")
        )

    # Redirect references to triggered events through fresh AND gates.
    redirect: dict[str, str] = {}
    trigger_gates: list[Gate] = []
    for event_name, gate_name in sorted(sdft.trigger_of.items()):
        and_name = f"{event_name}{TRIGGER_GATE_SUFFIX}"
        trigger_gates.append(
            Gate(
                and_name,
                GateType.AND,
                (event_name, gate_name),
                description=f"{event_name} requires its trigger {gate_name}",
            )
        )
        redirect[event_name] = and_name

    gates: list[Gate] = list(trigger_gates)
    for gate in sdft.gates.values():
        children = tuple(redirect.get(c, c) for c in gate.children)
        gates.append(Gate(gate.name, gate.gate_type, children, gate.k, gate.description))

    tree = FaultTree(sdft.top, events, gates, name=f"{sdft.name}#static")
    return StaticTranslation(tree, worst_case)
