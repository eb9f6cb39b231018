"""Fault tree → BDD compilation: exact probability, exact minimal cutsets.

This is the exact counterpart of the MOCUS pipeline.  A coherent fault
tree compiles bottom-up into one BDD per gate; the top gate's BDD gives

* the exact failure probability ``p(FT)`` in time linear in BDD size
  (no rare-event error, no cutoff), and
* the exact family of minimal cutsets, read off the paths of the
  minimal-solutions BDD (Rauzy's ``minsol`` recursion for monotone
  functions).

This module is both the production static engine's compiler (wrapped by
:mod:`repro.bdd.quantify`, which adds ordering selection and module-wise
decomposition) and the exact oracle the differential cross-checks and
the A1 ablation benchmark compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.bdd.engine import BddManager
from repro.bdd.equiv import compile_into
from repro.bdd.ordering import dfs_order
from repro.ft.cutsets import CutSetList
from repro.ft.tree import FaultTree

__all__ = ["CompiledTree", "compile_tree", "exact_probability", "exact_mcs"]


@dataclass
class CompiledTree:
    """A fault tree compiled to a BDD.

    Holds the manager, the root node of the top gate, the variable order
    used and per-gate roots (useful when sub-gates must be queried, e.g.
    for trigger-gate analyses).
    """

    tree: FaultTree
    manager: BddManager
    root: int
    order: tuple[str, ...]
    gate_roots: dict[str, int]

    @property
    def node_count(self) -> int:
        """Number of BDD nodes reachable from the top root."""
        return self.manager.count_nodes(self.root)

    def probability(self) -> float:
        """Exact top-event probability."""
        probabilities = {
            i: self.tree.events[name].probability
            for i, name in enumerate(self.order)
        }
        return self.manager.probability(self.root, probabilities)

    def minimal_cutsets(self) -> CutSetList:
        """Exact minimal cutsets of the top gate."""
        return self.minimal_cutsets_of(self.tree.top)

    def minimal_cutsets_of(self, gate_name: str) -> CutSetList:
        """Exact minimal cutsets of an arbitrary gate of the tree.

        Read off the paths of the minimal-solutions BDD
        (:meth:`repro.bdd.engine.BddManager.minsol`).
        """
        sets = self.manager.minimal_solution_sets(self.gate_roots[gate_name])
        named = [
            frozenset(self.order[i] for i in solution) for solution in sets
        ]
        probabilities = {n: e.probability for n, e in self.tree.events.items()}
        return CutSetList.from_cutsets(named, probabilities, minimal=True)


def compile_tree(
    tree: FaultTree,
    order: Sequence[str] | None = None,
    node_budget: int | None = None,
) -> CompiledTree:
    """Compile every gate of ``tree`` into a shared-manager BDD.

    ``order`` optionally fixes the variable order (a permutation of the
    event names); the default is the DFS heuristic of
    :func:`repro.bdd.ordering.dfs_order`.  ``node_budget`` caps the
    manager's node table: a compilation that would grow past it raises
    :class:`~repro.errors.BddBudgetExceeded` instead of thrashing.
    """
    chosen = list(order) if order is not None else dfs_order(tree)
    if sorted(chosen) != sorted(tree.events):
        raise ValueError("order must be a permutation of the tree's basic events")
    index = {name: i for i, name in enumerate(chosen)}
    manager = BddManager(node_budget=node_budget)
    node_of = compile_into(tree, manager, index)
    gate_roots = {name: node_of[name] for name in tree.gates}
    return CompiledTree(tree, manager, node_of[tree.top], tuple(chosen), gate_roots)


def exact_probability(tree: FaultTree) -> float:
    """Exact ``p(FT)`` (compile + evaluate in one call)."""
    return compile_tree(tree).probability()


def exact_mcs(tree: FaultTree) -> CutSetList:
    """Exact minimal cutsets of ``tree`` (compile + extract in one call)."""
    return compile_tree(tree).minimal_cutsets()
