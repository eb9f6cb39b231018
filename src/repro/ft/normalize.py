"""Partial evaluation of static fault trees.

:func:`restrict` evaluates a tree under a fixed assignment of some
basic events.  :func:`repro.ft.mocus.constrained_mcs` uses it for the
cutset-model construction of Section V-C, where static events from the
cutset are assumed failed and events outside the relevant set are
assumed functional.  The input tree is never mutated.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import UnknownNodeError
from repro.ft.tree import BasicEvent, FaultTree, Gate, GateType

__all__ = ["Restriction", "restrict"]


class Restriction:
    """Result of partially evaluating a tree under an assignment.

    Either the restricted root reduces to a constant (``constant`` holds
    ``True``/``False`` and ``tree`` is ``None``) or a residual tree over
    the unassigned events remains (``tree`` holds it, ``constant`` is
    ``None``).
    """

    def __init__(self, tree: FaultTree | None, constant: bool | None) -> None:
        assert (tree is None) != (constant is None)
        self.tree = tree
        self.constant = constant

    @property
    def is_constant(self) -> bool:
        """Whether the restriction collapsed to a constant truth value."""
        return self.constant is not None

    def __repr__(self) -> str:
        if self.is_constant:
            return f"Restriction(constant={self.constant})"
        return f"Restriction(tree={self.tree!r})"


def restrict(
    tree: FaultTree, root: str, assignment: Mapping[str, bool]
) -> Restriction:
    """Partially evaluate the subtree at ``root`` under ``assignment``.

    ``assignment`` maps basic-event names to fixed truth values (failed /
    functional).  Fixed events disappear from the result; gates whose
    value is forced collapse.  Gates that become single-child are kept as
    one-input gates so node names remain stable for callers that refer to
    them.

    The residual tree contains only nodes reachable from ``root``.
    """
    for name in assignment:
        if not tree.is_event(name):
            raise UnknownNodeError(f"assignment contains non-event {name!r}")

    # value[name] is True/False when forced, None when still symbolic.
    value: dict[str, bool | None] = {}
    for name in tree.events:
        value[name] = assignment.get(name)
    residual_children: dict[str, tuple[str, ...]] = {}
    for gate in tree.gates_bottom_up():
        free = [c for c in gate.children if value[c] is None]
        n_true = sum(1 for c in gate.children if value[c] is True)
        if gate.gate_type is GateType.AND:
            if n_true + len(free) < len(gate.children):  # some child is False
                value[gate.name] = False
            elif not free:
                value[gate.name] = True
            else:
                value[gate.name] = None
                residual_children[gate.name] = tuple(free)
        elif gate.gate_type is GateType.OR:
            if n_true > 0:
                value[gate.name] = True
            elif not free:
                value[gate.name] = False
            else:
                value[gate.name] = None
                residual_children[gate.name] = tuple(free)
        else:  # ATLEAST
            assert gate.k is not None
            needed = gate.k - n_true
            if needed <= 0:
                value[gate.name] = True
            elif needed > len(free):
                value[gate.name] = False
            else:
                value[gate.name] = None
                residual_children[gate.name] = tuple(free)

    root_value = value.get(root)
    if root not in tree.gates and root not in tree.events:
        raise UnknownNodeError(f"unknown node {root!r}")
    if root_value is not None:
        return Restriction(None, root_value)
    if tree.is_event(root):
        # A bare unassigned event as root: wrap in a trivial OR gate so the
        # result is a well-formed tree.
        wrapper = Gate(f"{root}#root", GateType.OR, (root,))
        return Restriction(
            FaultTree(wrapper.name, [tree.events[root]], [wrapper], name=tree.name),
            None,
        )

    # Collect the residual subtree below root, skipping forced children.
    gates: dict[str, Gate] = {}
    events: dict[str, BasicEvent] = {}
    stack = [root]
    visited: set[str] = set()
    while stack:
        name = stack.pop()
        if name in visited:
            continue
        visited.add(name)
        if tree.is_event(name):
            events[name] = tree.events[name]
            continue
        original = tree.gates[name]
        free = residual_children[name]
        if original.gate_type is GateType.ATLEAST:
            assert original.k is not None
            n_true = sum(1 for c in original.children if value[c] is True)
            needed = original.k - n_true
            if needed == len(free):
                gates[name] = Gate(name, GateType.AND, free)
            elif needed == 1:
                gates[name] = Gate(name, GateType.OR, free)
            else:
                gates[name] = Gate(name, GateType.ATLEAST, free, k=needed)
        else:
            gates[name] = Gate(name, original.gate_type, free)
        stack.extend(free)
    return Restriction(
        FaultTree(root, events.values(), gates.values(), name=tree.name), None
    )
