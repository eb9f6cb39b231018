"""Size statistics of static fault trees.

:class:`FaultTree` construction already enforces hard invariants (unique
names, known children, acyclicity, probability ranges); the soft
diagnostics a modeller wants before trusting an analysis — unreachable
nodes, single-input gates, constant-probability events — are the
linter's SD1xx/SD2xx rules (:mod:`repro.lint`).  This module keeps the
size statistics reported in the benchmark tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ft.tree import FaultTree, GateType

__all__ = ["tree_stats", "TreeStats"]


@dataclass(frozen=True)
class TreeStats:
    """Size statistics of a fault tree (the numbers reported in tables)."""

    n_events: int
    n_gates: int
    n_and: int
    n_or: int
    n_atleast: int
    max_depth: int
    mean_fan_in: float


def tree_stats(tree: FaultTree) -> TreeStats:
    """Compute :class:`TreeStats` for ``tree``."""
    n_and = sum(1 for g in tree.gates.values() if g.gate_type is GateType.AND)
    n_or = sum(1 for g in tree.gates.values() if g.gate_type is GateType.OR)
    n_atleast = len(tree.gates) - n_and - n_or
    depth: dict[str, int] = {name: 1 for name in tree.events}
    for gate in tree.gates_bottom_up():
        depth[gate.name] = 1 + max(depth[c] for c in gate.children)
    total_fan_in = sum(len(g.children) for g in tree.gates.values())
    return TreeStats(
        n_events=len(tree.events),
        n_gates=len(tree.gates),
        n_and=n_and,
        n_or=n_or,
        n_atleast=n_atleast,
        max_depth=depth[tree.top],
        mean_fan_in=total_fan_in / len(tree.gates) if tree.gates else 0.0,
    )
