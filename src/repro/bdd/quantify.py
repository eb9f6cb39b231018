"""Production BDD quantification of static fault trees.

Wraps :func:`repro.bdd.ft_bdd.compile_tree` with the two scaling levers
that turn the exact engine from a ≤24-event test oracle into the default
static quantifier (the "BDDs Strike Back" posture):

* **ordering selection** — the heuristics of
  :data:`repro.bdd.ordering.AUTO_CANDIDATES` are tried in sequence, each
  under the node budget, and the first that compiles is kept.  A tree
  whose DFS order blows up often compiles comfortably under the weight
  or depth order;
* **module-wise decomposition** — independent subtrees (modules, found
  by :func:`repro.ft.modules.find_modules`) are statistically
  independent of the rest of the tree, so each module compiles into its
  *own* small BDD and its exact probability substitutes for the module
  gate as a pseudo basic event.  Probabilities multiply where the logic
  is independent, and the node budget applies per compilation scope
  instead of to one monolithic diagram.

Everything stays exact: Shannon-expansion probability on each scope,
independence across scopes.  When every ordering trips the budget on
some scope, :class:`~repro.errors.BddBudgetExceeded` propagates and the
caller (the analyzer's static quantification) falls back to cutset
aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bdd.ft_bdd import CompiledTree, compile_tree
from repro.bdd.ordering import AUTO_CANDIDATES, ORDERINGS
from repro.errors import BddBudgetExceeded
from repro.ft.modules import find_modules
from repro.ft.tree import BasicEvent, FaultTree

__all__ = ["BddQuantification", "quantify_static_tree"]


@dataclass(frozen=True)
class BddQuantification:
    """Exact quantification of a static fault tree via BDD.

    ``node_count`` sums the reachable nodes over every compilation scope
    (modules plus the top residual), ``ordering`` names the heuristic
    the top scope compiled under, and ``module_orderings`` records any
    scope that needed a different heuristic.  ``n_modules`` counts the
    module scopes compiled separately (0 means the tree was compiled
    monolithically).
    """

    probability: float
    node_count: int
    ordering: str
    n_modules: int
    module_orderings: tuple[str, ...] = ()


def _compile_under(
    tree: FaultTree, node_budget: int | None
) -> tuple[CompiledTree, str]:
    """Compile ``tree`` under the first auto candidate that fits.

    Returns the compiled tree and the name of the heuristic that
    succeeded.  Each candidate gets the full node budget; the error of
    the *last* candidate propagates when all of them trip it.
    """
    last_error: BddBudgetExceeded | None = None
    for name in AUTO_CANDIDATES:
        try:
            compiled = compile_tree(tree, ORDERINGS[name](tree), node_budget)
        except BddBudgetExceeded as error:
            last_error = error
            continue
        return compiled, name
    assert last_error is not None
    raise last_error


def _local_scope(
    tree: FaultTree,
    root: str,
    module_probability: dict[str, float],
    pseudo_cache: dict[str, BasicEvent],
) -> FaultTree:
    """The subtree at ``root``, truncated at already-solved modules.

    Walks down from ``root``; any child gate with an entry in
    ``module_probability`` becomes a pseudo basic event of that name and
    probability, so the returned tree covers only the logic *between*
    ``root`` and its nested modules.
    """
    gates = []
    events: dict[str, BasicEvent] = {}
    stack = [root]
    seen: set[str] = set()
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        if tree.is_event(name):
            events[name] = tree.events[name]
            continue
        if name != root and name in module_probability:
            pseudo = pseudo_cache.get(name)
            if pseudo is None:
                # Exact module probabilities live in [0, 1]; clamp away
                # float dust so BasicEvent's range check never trips.
                p = min(max(module_probability[name], 0.0), 1.0)
                pseudo = BasicEvent(
                    name, p, description="module pseudo-event"
                )
                pseudo_cache[name] = pseudo
            events[name] = pseudo
            continue
        gates.append(tree.gates[name])
        stack.extend(tree.children(name))
    return FaultTree(root, events.values(), gates, name=f"{tree.name}/{root}")


def quantify_static_tree(
    tree: FaultTree, node_budget: int | None = None
) -> BddQuantification:
    """Exact top-event probability of a static fault tree.

    The tree is cut at its module gates and each scope compiles
    separately under the first of
    :data:`~repro.bdd.ordering.AUTO_CANDIDATES` that fits the budget —
    processed bottom-up over an explicit worklist, so arbitrarily deep
    module nesting (chain trees) never recurses.

    Raises :class:`~repro.errors.BddBudgetExceeded` when some scope
    cannot be compiled under ``node_budget`` by any candidate ordering.
    """
    module_probability: dict[str, float] = {}
    pseudo_cache: dict[str, BasicEvent] = {}
    module_orderings: list[str] = []
    total_nodes = 0
    # Bottom-up over all module gates below the top: children-first
    # topological order guarantees nested modules are solved before the
    # scopes that reference them.
    module_set = {m for m in find_modules(tree).modules if m != tree.top}
    scopes = [name for name in tree.topological_order() if name in module_set]
    for scope_root in scopes:
        local = _local_scope(
            tree, scope_root, module_probability, pseudo_cache
        )
        compiled, used = _compile_under(local, node_budget)
        total_nodes += compiled.node_count
        module_orderings.append(used)
        module_probability[scope_root] = compiled.probability()
    top_scope = _local_scope(tree, tree.top, module_probability, pseudo_cache)
    compiled, used = _compile_under(top_scope, node_budget)
    total_nodes += compiled.node_count
    return BddQuantification(
        probability=compiled.probability(),
        node_count=total_nodes,
        ordering=used,
        n_modules=len(scopes),
        module_orderings=tuple(
            name for name in module_orderings if name != used
        ),
    )
