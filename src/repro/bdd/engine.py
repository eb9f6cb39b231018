"""A reduced ordered binary decision diagram (ROBDD) engine.

Built from scratch for this package: hash-consed nodes, memoized binary
``apply`` for AND/OR, threshold (k-of-n) composition, model counting and
probability evaluation by Shannon expansion.

Nodes are integers indexing into the manager's node table; ``0`` and
``1`` are the terminal FALSE and TRUE.  Variables are integers
``0..n-1`` ordered by their index (smaller index closer to the root).
The engine only needs monotone operations (fault trees are coherent),
but ``negate`` is provided for completeness and testing.

Scaling posture (this is the *production* static quantifier, not just a
test oracle):

* every structural walk — ``_apply``, :meth:`~BddManager.negate`,
  :meth:`~BddManager.probability`, :meth:`~BddManager.minsol`,
  :meth:`~BddManager.without`, path extraction — is iterative, so chain
  trees thousands of events deep compile without touching Python's
  recursion limit;
* the operation caches (``apply``, ``negate``, ``minsol``, ``without``,
  ``atleast``) live on the manager and persist across calls, so
  repeated sub-structures (identical gates, module re-use) are solved
  once per manager rather than once per call;
* an optional *node budget* turns the worst-case exponential blow-up
  into a clean :class:`~repro.errors.BddBudgetExceeded` signal the
  analyzer converts into a cutset-quantification fallback.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, Sequence

from repro.errors import BddBudgetExceeded

__all__ = ["BddManager", "FALSE", "TRUE"]

FALSE = 0
TRUE = 1

#: Variable index attached to the terminals; larger than any real variable.
_TERMINAL_VAR = 1 << 60


class BddManager:
    """Owns the node table and caches of one BDD universe.

    All nodes returned by one manager are only meaningful within that
    manager.  The manager never garbage-collects: fault-tree compilations
    are one-shot, and the ``node_budget`` guard bounds how large the
    table may grow — creating a node past the budget raises
    :class:`~repro.errors.BddBudgetExceeded` instead of thrashing.
    """

    def __init__(self, node_budget: int | None = None) -> None:
        # node id -> (var, low, high); terminals get sentinel entries.
        self._var: list[int] = [_TERMINAL_VAR, _TERMINAL_VAR]
        self._low: list[int] = [FALSE, TRUE]
        self._high: list[int] = [FALSE, TRUE]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._apply_cache: dict[tuple[str, int, int], int] = {}
        self._minsol_cache: dict[int, int] = {}
        self._without_cache: dict[tuple[int, int], int] = {}
        self._negate_cache: dict[int, int] = {}
        self._atleast_cache: dict[tuple[int, tuple[int, ...]], int] = {}
        self.node_budget = node_budget

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Total number of nodes ever created (including terminals)."""
        return len(self._var)

    def mk(self, var: int, low: int, high: int) -> int:
        """Return the (hash-consed) node ``ite(var, high, low)``.

        Applies the reduction rules: identical branches collapse, and
        structurally equal nodes are shared.  Raises
        :class:`~repro.errors.BddBudgetExceeded` when creating the node
        would push the table past the manager's ``node_budget``.
        """
        if low == high:
            return low
        key = (var, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        if self.node_budget is not None and len(self._var) >= self.node_budget:
            raise BddBudgetExceeded(
                f"BDD node budget exceeded: {len(self._var)} nodes "
                f"(budget {self.node_budget})"
            )
        node = len(self._var)
        self._var.append(var)
        self._low.append(low)
        self._high.append(high)
        self._unique[key] = node
        return node

    def var(self, index: int) -> int:
        """The BDD of the single variable ``index``."""
        return self.mk(index, FALSE, TRUE)

    def top_var(self, node: int) -> int:
        """Variable index at the root of ``node`` (sentinel for terminals)."""
        return self._var[node]

    def cofactors(self, node: int, var: int) -> tuple[int, int]:
        """``(low, high)`` cofactors of ``node`` with respect to ``var``.

        If ``var`` is not the root variable of ``node`` (because the node
        does not depend on it at this level), both cofactors are ``node``
        itself.
        """
        if self._var[node] == var:
            return self._low[node], self._high[node]
        return node, node

    # ------------------------------------------------------------------
    # Boolean operations
    # ------------------------------------------------------------------

    def apply_and(self, u: int, v: int) -> int:
        """Conjunction of two BDDs."""
        return self._apply("and", u, v)

    def apply_or(self, u: int, v: int) -> int:
        """Disjunction of two BDDs."""
        return self._apply("or", u, v)

    def conjoin(self, nodes: Sequence[int]) -> int:
        """AND over a sequence of BDDs (TRUE for an empty sequence)."""
        result = TRUE
        for node in nodes:
            result = self.apply_and(result, node)
        return result

    def disjoin(self, nodes: Sequence[int]) -> int:
        """OR over a sequence of BDDs (FALSE for an empty sequence)."""
        result = FALSE
        for node in nodes:
            result = self.apply_or(result, node)
        return result

    def atleast(self, k: int, nodes: Sequence[int]) -> int:
        """BDD of "at least ``k`` of ``nodes`` hold".

        Dynamic programming over the sequence: ``T(k, rest)`` is
        ``(first AND T(k-1, rest')) OR T(k, rest')``.  Memoised on the
        *manager* under ``(k, suffix-of-node-ids)`` keys, so identical
        voting gates across a tree (and across compilations sharing this
        manager) are built once.  ``k <= 0`` is TRUE (zero of anything
        always holds); ``k > len(nodes)`` is FALSE.
        """
        seq = tuple(nodes)
        if k <= 0:
            return TRUE
        if k > len(seq):
            return FALSE
        cache = self._atleast_cache
        # Suffix tuples share no storage but the key count is O(k * n).
        suffixes = [seq[i:] for i in range(len(seq) + 1)]

        def lookup(need: int, position: int) -> int:
            if need <= 0:
                return TRUE
            if need > len(seq) - position:
                return FALSE
            return cache[(need, suffixes[position])]

        for position in range(len(seq) - 1, -1, -1):
            remaining = len(seq) - position
            for need in range(1, min(k, remaining) + 1):
                key = (need, suffixes[position])
                if key in cache:
                    continue
                with_first = self.apply_and(
                    seq[position], lookup(need - 1, position + 1)
                )
                without_first = lookup(need, position + 1)
                cache[key] = self.apply_or(with_first, without_first)
        return lookup(k, 0)

    def negate(self, u: int) -> int:
        """Complement of a BDD (not needed for coherent trees; for tests).

        Iterative post-order over the reachable nodes — a chain tree
        thousands of levels deep negates without recursion.
        """
        cache = self._negate_cache

        def resolve(node: int) -> int:
            if node == FALSE:
                return TRUE
            if node == TRUE:
                return FALSE
            return cache[node]

        found = cache.get(u)
        if found is not None:
            return found
        if u <= TRUE:
            return resolve(u)
        for node in self._nodes_below(u):
            if node in cache:
                continue
            cache[node] = self.mk(
                self._var[node],
                resolve(self._low[node]),
                resolve(self._high[node]),
            )
        return cache[u]

    def _apply_shortcut(self, op: str, u: int, v: int) -> int | None:
        """Terminal and identity cases of ``apply``; ``None`` when real work remains."""
        if op == "and":
            if u == FALSE or v == FALSE:
                return FALSE
            if u == TRUE:
                return v
            if v == TRUE:
                return u
        else:  # or
            if u == TRUE or v == TRUE:
                return TRUE
            if u == FALSE:
                return v
            if v == FALSE:
                return u
        if u == v:
            return u
        return None

    def _apply(self, op: str, u: int, v: int) -> int:
        """Memoized binary apply, iterative (explicit frame stack).

        The classical recursion is depth-bounded by the variable count,
        which for deep chain trees exceeds Python's recursion limit; the
        explicit stack removes that ceiling while keeping the same
        per-manager memo table.
        """
        shortcut = self._apply_shortcut(op, u, v)
        if shortcut is not None:
            return shortcut
        cache = self._apply_cache

        def key_of(a: int, b: int) -> tuple[str, int, int]:
            # Operations are commutative; canonicalise the key.
            return (op, b, a) if a > b else (op, a, b)

        root_key = key_of(u, v)
        found = cache.get(root_key)
        if found is not None:
            return found
        stack: list[tuple[int, int, bool]] = [(u, v, False)]
        while stack:
            a, b, expanded = stack.pop()
            key = key_of(a, b)
            if not expanded and key in cache:
                continue
            var = min(self._var[a], self._var[b])
            a_low, a_high = self.cofactors(a, var)
            b_low, b_high = self.cofactors(b, var)
            if expanded:
                low = self._apply_shortcut(op, a_low, b_low)
                if low is None:
                    low = cache[key_of(a_low, b_low)]
                high = self._apply_shortcut(op, a_high, b_high)
                if high is None:
                    high = cache[key_of(a_high, b_high)]
                cache[key] = self.mk(var, low, high)
                continue
            stack.append((a, b, True))
            if self._apply_shortcut(op, a_low, b_low) is None:
                stack.append((a_low, b_low, False))
            if self._apply_shortcut(op, a_high, b_high) is None:
                stack.append((a_high, b_high, False))
        return cache[root_key]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(self, node: int, assignment: Callable[[int], bool]) -> bool:
        """Evaluate the function under a variable assignment."""
        while node > TRUE:
            if assignment(self._var[node]):
                node = self._high[node]
            else:
                node = self._low[node]
        return node == TRUE

    def probability(self, node: int, p: Mapping[int, float]) -> float:
        """Probability that the function holds, given independent variables.

        ``p[i]`` is the probability that variable ``i`` is true.  Linear
        in the number of BDD nodes thanks to memoisation — this is the
        exact computation a cutset-based method approximates.
        """
        cache: dict[int, float] = {FALSE: 0.0, TRUE: 1.0}
        order = self._nodes_below(node)
        for n in order:
            p_var = p[self._var[n]]
            cache[n] = (1.0 - p_var) * cache[self._low[n]] + p_var * cache[
                self._high[n]
            ]
        return cache[node]

    def count_nodes(self, node: int) -> int:
        """Number of distinct nodes reachable from ``node`` (terminals included)."""
        return len(self._nodes_below(node)) + (2 if node > TRUE else 1)

    def count_paths(self, node: int) -> int:
        """Number of paths from ``node`` to the TRUE terminal.

        On a minimal-solutions BDD (:meth:`minsol`) this is exactly the
        number of minimal solutions — computable in time linear in the
        BDD size, so callers can bound an extraction *before*
        materialising the family.
        """
        cache: dict[int, int] = {FALSE: 0, TRUE: 1}
        for n in self._nodes_below(node):
            cache[n] = cache[self._low[n]] + cache[self._high[n]]
        return cache[node]

    def support(self, node: int) -> frozenset[int]:
        """Set of variable indices the function actually depends on."""
        return frozenset(self._var[n] for n in self._nodes_below(node))

    def _nodes_below(self, node: int) -> list[int]:
        """Non-terminal nodes reachable from ``node``, children first."""
        seen: set[int] = set()
        order: list[int] = []
        stack: list[tuple[int, bool]] = [(node, False)]
        while stack:
            n, expanded = stack.pop()
            if n <= TRUE or (not expanded and n in seen):
                continue
            if expanded:
                order.append(n)
                continue
            seen.add(n)
            stack.append((n, True))
            stack.append((self._low[n], False))
            stack.append((self._high[n], False))
        return order

    # ------------------------------------------------------------------
    # Minimal solutions (monotone functions)
    # ------------------------------------------------------------------

    def minsol(self, node: int) -> int:
        """The minimal-solutions BDD of a *monotone* function.

        In the result, every path to TRUE encodes (through its positive
        literals) exactly one inclusion-minimal solution of the input.
        Classical recursion over the positive Shannon expansion
        ``f = x·f1 + f0``: keep ``minsol(f0)``, and from ``minsol(f1)``
        keep only the solutions not already above one of ``minsol(f0)``
        (the :meth:`without` subtraction).  Memoised on the manager and
        evaluated children-first over the reachable nodes, so the walk
        never recurses.
        """
        cache = self._minsol_cache
        if node <= TRUE:
            return node
        found = cache.get(node)
        if found is not None:
            return found

        def resolve(n: int) -> int:
            return n if n <= TRUE else cache[n]

        for n in self._nodes_below(node):
            if n in cache:
                continue
            low = resolve(self._low[n])
            high = resolve(self._high[n])
            cache[n] = self.mk(self._var[n], low, self.without(high, low))
        return cache[node]

    def _without_shortcut(self, u: int, v: int) -> int | None:
        """Terminal cases of :meth:`without`; ``None`` when real work remains."""
        if u == FALSE or v == TRUE:
            # v encodes the empty set: it subsumes everything.
            return FALSE
        if v == FALSE or u == TRUE:
            # Nothing to subtract, or u's only solution is the empty set
            # (which only TRUE in v could subsume — handled above).
            return u
        return None

    def without(self, u: int, v: int) -> int:
        """Solutions of ``u`` that are not supersets of a solution of ``v``.

        Both operands are minimal-solutions BDDs (positive-literal paths
        encode sets).  A set ``S`` is discarded iff some ``T`` encoded in
        ``v`` satisfies ``T ⊆ S``.  Iterative with an explicit frame
        stack, like :meth:`_apply`.
        """
        shortcut = self._without_shortcut(u, v)
        if shortcut is not None:
            return shortcut
        cache = self._without_cache
        found = cache.get((u, v))
        if found is not None:
            return found

        def resolve(a: int, b: int) -> int | None:
            result = self._without_shortcut(a, b)
            if result is not None:
                return result
            return cache.get((a, b))

        stack: list[tuple[int, int, bool]] = [(u, v, False)]
        while stack:
            a, b, expanded = stack.pop()
            if not expanded and (a, b) in cache:
                continue
            a_var = self._var[a]
            b_var = self._var[b]
            if a_var < b_var:
                # b never mentions a_var: subtract b from both cofactors.
                subproblems = [(self._low[a], b), (self._high[a], b)]
            elif a_var > b_var:
                # a's sets never contain b_var, so b's sets that require
                # it can never be subsets; only b's var-free part matters.
                subproblems = [(a, self._low[b])]
            else:
                # S ∋ x is above T when (x ∈ T and S\{x} ⊇ T\{x}) or
                # (x ∉ T and S\{x} ⊇ T): subtract both b-cofactors from a1.
                b_both = self.apply_or(self._low[b], self._high[b])
                subproblems = [
                    (self._low[a], self._low[b]),
                    (self._high[a], b_both),
                ]
            if expanded:
                parts = [resolve(pa, pb) for pa, pb in subproblems]
                resolved = [part for part in parts if part is not None]
                if len(subproblems) == 1:
                    cache[(a, b)] = resolved[0]
                else:
                    cache[(a, b)] = self.mk(a_var, resolved[0], resolved[1])
                continue
            stack.append((a, b, True))
            for pa, pb in subproblems:
                if resolve(pa, pb) is None:
                    stack.append((pa, pb, False))
        return cache[(u, v)]

    def minimal_solution_sets(self, node: int) -> list[frozenset[int]]:
        """Minimal solutions of a monotone function, as variable sets.

        Runs :meth:`minsol` and reads the positive literals of each path
        to TRUE.
        """
        solutions = []
        for path in self.satisfying_paths(self.minsol(node)):
            solutions.append(
                frozenset(var for var, value in path.items() if value)
            )
        return solutions

    # ------------------------------------------------------------------
    # Solution extraction
    # ------------------------------------------------------------------

    def satisfying_paths(self, node: int) -> Iterator[dict[int, bool]]:
        """Yield partial assignments (one per BDD path) that satisfy the function.

        Variables absent from a yielded dict are "don't care".  Iterative
        depth-first traversal with an explicit branch stack, so path
        length (bounded by the variable count) never hits the recursion
        limit.  Minimal-cutset extraction reads it through
        :meth:`minimal_solution_sets`.
        """
        if node == FALSE:
            return
        if node == TRUE:
            yield {}
            return
        partial: dict[int, bool] = {}
        # Each frame: (node, branch) with branch 0 = low pending,
        # 1 = high pending, 2 = both done (pop the assignment).
        stack: list[tuple[int, int]] = [(node, 0)]
        while stack:
            n, branch = stack.pop()
            if n <= TRUE:
                if n == TRUE:
                    yield dict(partial)
                continue
            var = self._var[n]
            if branch == 0:
                stack.append((n, 1))
                partial[var] = False
                child = self._low[n]
                if child <= TRUE:
                    if child == TRUE:
                        yield dict(partial)
                else:
                    stack.append((child, 0))
            elif branch == 1:
                stack.append((n, 2))
                partial[var] = True
                child = self._high[n]
                if child <= TRUE:
                    if child == TRUE:
                        yield dict(partial)
                else:
                    stack.append((child, 0))
            else:
                del partial[var]
