"""Variable-ordering heuristics for fault-tree BDD compilation.

BDD size is notoriously sensitive to the variable order.  For fault
trees, the classical and robust choice is depth-first visit order of the
basic events from the top gate: events that co-occur under the same gate
get adjacent indices.  Two structural alternatives are provided —
*weight* (Minato-style top-down weight splitting) and *depth* (shallow
events first) — because on some topologies they beat DFS by orders of
magnitude.  The production quantifier
(:func:`repro.bdd.quantify.quantify_static_tree`) tries them in sequence
under the node budget; ``ORDERINGS``/``AUTO_CANDIDATES`` are the
registry it draws from.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.ft.tree import FaultTree

__all__ = [
    "AUTO_CANDIDATES",
    "ORDERINGS",
    "depth_order",
    "dfs_order",
    "weight_order",
]


def dfs_order(tree: FaultTree) -> list[str]:
    """Events in first-visit order of a depth-first walk from the top.

    Events unreachable from the top gate are appended alphabetically so
    that the order always covers the whole event set.
    """
    order: list[str] = []
    seen: set[str] = set()
    stack: list[str] = [tree.top]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        if tree.is_event(name):
            order.append(name)
            continue
        for child in reversed(tree.children(name)):
            stack.append(child)
    for name in sorted(tree.events):
        if name not in seen:
            order.append(name)
    return order


def weight_order(tree: FaultTree) -> list[str]:
    """Events by descending *structural weight*, DFS rank as tie-break.

    The top gate carries weight 1, every gate splits its weight equally
    among its children, and weights accumulate over a DAG's multiple
    paths.  An event's weight measures how "central" it is to the top
    gate; putting heavy events near the BDD root keeps the functions at
    each level simple.  Classical heuristic from the BDD literature
    (Minato's weight heuristic adapted to fault trees).
    """
    weight: dict[str, float] = {tree.top: 1.0}
    # Parents precede children when walking the topological order backwards.
    for name in reversed(tree.topological_order()):
        w = weight.get(name)
        if w is None or tree.is_event(name):
            continue
        children = tree.children(name)
        share = w / len(children)
        for child in children:
            weight[child] = weight.get(child, 0.0) + share
    rank = {name: i for i, name in enumerate(dfs_order(tree))}
    return sorted(
        tree.events, key=lambda n: (-weight.get(n, 0.0), rank[n])
    )


def depth_order(tree: FaultTree) -> list[str]:
    """Events by increasing minimal depth below the top, DFS tie-break.

    Events wired close to the top gate decide the top event with few
    other variables in scope, so testing them first keeps the upper BDD
    levels narrow.  Events unreachable from the top sort last.
    """
    depth: dict[str, int] = {tree.top: 0}
    frontier: list[str] = [tree.top]
    while frontier:
        next_frontier: list[str] = []
        for name in frontier:
            d = depth[name] + 1
            for child in tree.children(name):
                if child not in depth:
                    depth[child] = d
                    next_frontier.append(child)
        frontier = next_frontier
    unreachable = len(tree.events) + len(tree.gates) + 1
    rank = {name: i for i, name in enumerate(dfs_order(tree))}
    return sorted(
        tree.events, key=lambda n: (depth.get(n, unreachable), rank[n])
    )


#: Named heuristics, addressable from options and metrics labels.
ORDERINGS: Mapping[str, Callable[[FaultTree], list[str]]] = {
    "dfs": dfs_order,
    "weight": weight_order,
    "depth": depth_order,
}

#: Orders tried (in sequence, each under the node budget) by the
#: automatic selection of :func:`repro.bdd.quantify.quantify_static_tree`.
AUTO_CANDIDATES: tuple[str, ...] = ("dfs", "weight", "depth")
