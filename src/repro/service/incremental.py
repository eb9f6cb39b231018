"""Incremental minimal-cutset generation for the what-if engine.

A cold MOCUS run with probabilistic cutoff ``c*`` produces exactly the
minimal cutsets of the translated tree whose probability exceeds ``c*``
(in-search pruning is conservative: a partial's probability product only
shrinks as events are added, so every above-cutoff minimal cutset
survives the search).  Anything that reproduces *that set* and then goes
through :meth:`MocusResult.from_family <repro.ft.mocus.MocusResult.from_family>`
— the one constructor the search, the analyzer's warm-cache and
checkpoint paths use too — is element-for-element what a cold search
would have returned.

Two incremental strategies exploit this, in order of preference:

1. **Re-truncate** — when the edit left the gate structure untouched and
   no event probability *increased*, the previous run's pre-truncation
   family already contains every cutset that can be above the cutoff now
   (probabilities only fell), so re-truncating it locally is exact and
   skips the search entirely.

2. **Modular recomposition** — otherwise, decompose the tree into its
   maximal independent modules (Dutuit–Rauzy, :mod:`repro.ft.modules`).
   Each module's *complete* minimal-cutset family is read off its BDD
   (:func:`~repro.bdd.ft_bdd.compile_tree`, then ``minsol``).  A
   complete family depends on the module's gate structure only, not on
   any probability, so it is keyed by that structure: a session compiles
   each module once, and every later probability or rate edit reuses
   it.  A small *context tree* (each module gate collapsed to a basic
   event at the module's largest cutset probability under the current
   probabilities — an upper bound, so context pruning stays
   conservative) is re-searched by MOCUS every time, and the whole-tree
   family is the bound-pruned cross-product of context cutsets with
   module families.  Because all probability factors are ``≤ 1``, every
   whole-tree cutset above ``c*`` projects onto each module as a module
   cutset above ``c*``, so the composition misses none of them; for
   coherent AND/OR/ATLEAST trees it yields exactly the minimal cutsets
   of the whole tree.

Both paths end in the same canonical membership test the cold search
uses (``cutset_probability(C) > cutoff`` with a single fixed
multiplication order; see ``_CUTOFF_SLACK`` in :mod:`repro.ft.mocus`),
and all intermediate bound-pruning here carries the same ULP slack —
so boundary-straddling cutsets resolve identically warm and cold.  A
probability parked *exactly on* the cutoff is still a single-rounding
coin flip; don't do that.

When neither strategy applies (a module BDD past its node budget, a
context search overflow, an overlapping module report, an oversized
cross-product) the caller falls back to a full MOCUS run; the fallback
is always sound, never silent.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.bdd.ft_bdd import compile_tree
from repro.errors import BddBudgetExceeded, CutoffError
from repro.ft.cutsets import cutset_probability
from repro.ft.mocus import _CUTOFF_SLACK, MocusOptions, MocusResult, mocus
from repro.ft.modules import find_modules
from repro.ft.tree import BasicEvent, FaultTree

__all__ = [
    "FamilyCache",
    "IncrementalStats",
    "incremental_cutsets",
]

#: A family of cutsets as sorted event-name tuples.
Family = tuple[tuple[str, ...], ...]

#: A module family's cutsets with their probabilities, most probable first.
Selections = list[tuple[tuple[str, ...], float]]


@dataclass
class IncrementalStats:
    """What the incremental engine did for one re-analysis."""

    mode: str = "full"
    modules_total: int = 0
    modules_reused: int = 0
    modules_recomputed: int = 0
    context_cutsets: int = 0
    composed_cutsets: int = 0

    def summary(self) -> str:
        if self.mode == "retruncate":
            return (
                "incremental: structure unchanged, probabilities "
                "non-increasing; previous family re-truncated "
                f"({self.composed_cutsets} cutsets, search skipped)"
            )
        if self.mode == "modular":
            return (
                f"incremental: {self.modules_reused}/{self.modules_total} "
                f"module families reused, {self.modules_recomputed} "
                f"recomputed; {self.context_cutsets} context cutsets "
                f"composed into {self.composed_cutsets}"
            )
        return "incremental: fell back to a full MOCUS search"


class FamilyCache:
    """Complete minimal-cutset families of module subtrees, LRU-evicted.

    A complete family is a function of the subtree's gate structure
    alone, so the key is that structure (:func:`_structure_key`) and
    carries no probability: an edit that only changes probabilities or
    rates hits the cache, and an edit that rewires a module misses it.
    """

    def __init__(self, max_entries: int = 512) -> None:
        self.max_entries = max_entries
        self._store: "OrderedDict[tuple, Family]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: tuple) -> Family | None:
        family = self._store.get(key)
        if family is None:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return family

    def put(self, key: tuple, family: Family) -> None:
        self._store[key] = family
        self._store.move_to_end(key)
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)


def _structure_key(tree: FaultTree) -> tuple:
    """Everything a minimal-cutset family depends on except probabilities."""
    return (
        tree.top,
        frozenset(tree.events),
        tuple(
            sorted(
                (name, gate.gate_type.value, gate.children, gate.k)
                for name, gate in tree.gates.items()
            )
        ),
    )


def _non_increasing(new_tree: FaultTree, previous_tree: FaultTree) -> bool:
    previous = {
        name: event.probability for name, event in previous_tree.events.items()
    }
    return all(
        event.probability <= previous[name]
        for name, event in new_tree.events.items()
    )


def incremental_cutsets(
    tree: FaultTree,
    options: MocusOptions,
    families: FamilyCache,
    previous_tree: FaultTree | None = None,
    previous_family: Family = (),
    node_budget: int | None = None,
) -> tuple[MocusResult, IncrementalStats] | None:
    """Generate the cutsets of ``tree`` reusing previous work.

    Returns ``None`` when no incremental strategy applies — the caller
    must then run a full MOCUS search (cold behaviour).  On success the
    returned :class:`MocusResult` is element-for-element what a cold
    search of ``tree`` would produce (modulo the documented cutoff
    float-boundary caveat), with ``full_cutsets`` populated so the next
    edit can take the re-truncate fast path.  ``node_budget`` caps each
    module BDD; a module past it sends the run to the full search.
    """
    if (
        previous_tree is not None
        and previous_family
        and _structure_key(tree) == _structure_key(previous_tree)
        and _non_increasing(tree, previous_tree)
    ):
        result = MocusResult.from_family(previous_family, tree, options.cutoff)
        stats = IncrementalStats(
            mode="retruncate", composed_cutsets=len(result.cutsets)
        )
        return result, stats
    try:
        return _modular(tree, options, families, node_budget)
    except (BddBudgetExceeded, CutoffError):
        # A module BDD outgrew its node budget, or a module family or
        # the context search its limits; let the cold pipeline handle
        # (and report) it.
        return None


def _module_family(
    subtree: FaultTree, options: MocusOptions, node_budget: int | None
) -> Family:
    """The complete minimal-cutset family of ``subtree``, from its BDD.

    Held to the ``max_cutsets`` bound a search is held to, counted on
    the minimal-solutions BDD before any cutset is materialised.
    """
    compiled = compile_tree(subtree, node_budget=node_budget)
    manager, order = compiled.manager, compiled.order
    size = manager.count_paths(manager.minsol(compiled.root))
    if size > options.max_cutsets:
        raise CutoffError(
            f"module {subtree.top} has {size} minimal cutsets, over "
            f"max_cutsets={options.max_cutsets}"
        )
    return tuple(
        tuple(sorted(order[i] for i in solution))
        for solution in manager.minimal_solution_sets(compiled.root)
    )


def _modular(
    tree: FaultTree,
    options: MocusOptions,
    families: FamilyCache,
    node_budget: int | None,
) -> tuple[MocusResult, IncrementalStats] | None:
    stats = IncrementalStats(mode="modular")
    reach = tree.reachable_from_top()
    report = find_modules(tree)
    chosen = [
        name for name in report.maximal if name in reach and name != tree.top
    ]
    stats.modules_total = len(chosen)

    # Maximal modules are pairwise disjoint for well-formed trees; if the
    # report ever says otherwise, collapsing them would double-count —
    # bail out to the full search instead of risking a wrong answer.
    covered_gates: set[str] = set()
    covered_events: set[str] = set()
    total_nodes = 0
    for name in chosen:
        gates = tree.gates_under(name)
        events = tree.events_under(name)
        total_nodes += len(gates) + len(events)
        covered_gates |= gates
        covered_events |= events
    if total_nodes != len(covered_gates) + len(covered_events):
        return None

    probabilities = {
        name: event.probability for name, event in tree.events.items()
    }
    expansions: dict[str, Selections] = {}
    for name in chosen:
        subtree = tree.subtree(name)
        key = _structure_key(subtree)
        family = families.get(key)
        if family is None:
            family = _module_family(subtree, options, node_budget)
            families.put(key, family)
            stats.modules_recomputed += 1
        else:
            stats.modules_reused += 1
        selections = [
            (cutset, cutset_probability(frozenset(cutset), probabilities))
            for cutset in family
        ]
        selections.sort(key=lambda item: (-item[1], item[0]))
        expansions[name] = selections

    context_events = [
        event
        for name, event in tree.events.items()
        if name in reach and name not in covered_events
    ]
    context_events += [
        BasicEvent(name, _largest(expansions[name])) for name in chosen
    ]
    context_gates = [
        gate
        for name, gate in tree.gates.items()
        if name in reach and name not in covered_gates
    ]
    context = FaultTree(
        tree.top, context_events, context_gates, name=f"{tree.name}#context"
    )
    context_result = mocus(context, options)
    if context_result.truncated:  # pragma: no cover - no budget in play
        return None
    context_family = context_result.full_cutsets
    stats.context_cutsets = len(context_family)

    composed = _compose(probabilities, context_family, expansions, options)
    if composed is None:
        return None
    stats.composed_cutsets = len(composed)
    # The composition of minimal context cutsets with minimal module
    # families is minimal for disjoint modules (each composed set
    # uniquely determines its context cutset and module selections), so
    # `minimal=False` only re-checks what the theorem guarantees — cheap
    # insurance against a bad module report.
    result = MocusResult.from_family(
        composed, tree, options.cutoff, minimal=False
    )
    return result, stats


def _largest(selections: Selections) -> float:
    """A module's largest cutset probability: its first selection."""
    return selections[0][1] if selections else 0.0


def _compose(
    probabilities: dict[str, float],
    context_family: Family,
    expansions: dict[str, Selections],
    options: MocusOptions,
) -> list[frozenset[str]] | None:
    """Bound-pruned cross-product expansion of context cutsets.

    Pruning discards a branch only when the *maximum possible* completed
    probability is at or below the cutoff — every discarded composition
    would have been pruned (or truncated) by the cold search too.
    """
    use_cutoff = options.cutoff > 0.0
    cutoff = options.cutoff
    composed: list[frozenset[str]] = []
    overflow = False

    def expand(
        modules: list[str],
        suffix: list[float],
        index: int,
        events: list[str],
        probability: float,
    ) -> None:
        nonlocal overflow
        if overflow or (
            use_cutoff
            and probability * suffix[index] * _CUTOFF_SLACK <= cutoff
        ):
            return
        if index == len(modules):
            composed.append(frozenset(events))
            if len(composed) > options.max_cutsets:
                overflow = True
            return
        for selection, p_selection in expansions[modules[index]]:
            if (
                use_cutoff
                and probability * p_selection * suffix[index + 1] * _CUTOFF_SLACK
                <= cutoff
            ):
                # Selections are sorted by descending probability: every
                # later selection bounds out too.
                break
            expand(
                modules,
                suffix,
                index + 1,
                events + list(selection),
                probability * p_selection,
            )

    for context_cutset in context_family:
        base = [name for name in context_cutset if name not in expansions]
        modules = [name for name in context_cutset if name in expansions]
        probability = 1.0
        for name in base:
            probability *= probabilities[name]
        suffix = [1.0] * (len(modules) + 1)
        for i in range(len(modules) - 1, -1, -1):
            suffix[i] = suffix[i + 1] * _largest(expansions[modules[i]])
        expand(modules, suffix, 0, base, probability)
        if overflow:
            return None
    return composed
