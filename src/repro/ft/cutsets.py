"""Cutset algebra: minimisation, probabilities and aggregation.

A *cutset* is a set of basic events whose joint failure fails the top
gate; a *minimal cutset* (MCS) contains no smaller cutset (paper,
Section IV-A).  This module represents cutsets as ``frozenset[str]`` and
provides

* inclusion-minimisation of cutset families (:func:`minimize`) on one
  bitmask kernel (:func:`minimize_masks`, :func:`is_subsumed_mask`),
  which the MOCUS search shares for its subsumption pruning,
* per-cutset probability ``p(C) = prod p(a)`` (:func:`cutset_probability`),
* the three standard aggregations of an MCS list: rare-event
  approximation, min-cut upper bound, and exact inclusion–exclusion
  (:class:`CutSetList`, which computes each cutset's sorted names and
  canonical probability once and reads them in every aggregation).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "CutSet",
    "minimize",
    "minimize_masks",
    "is_subsumed_mask",
    "cutset_probability",
    "sorted_probability",
    "CutSetList",
]

CutSet = frozenset  # type alias: a cutset is a frozen set of event names


#: Masks with at most this many set bits use submask enumeration for the
#: subsumption test (at most ``2^k`` hash lookups); larger ones scan the
#: kept list.
_SUBMASK_ENUM_LIMIT = 12


def minimize(cutsets: Iterable[frozenset[str]]) -> list[frozenset[str]]:
    """Keep only the inclusion-minimal members of a family of sets.

    Names map to bits in sorted-name order, :func:`minimize_masks` keeps
    the minimal masks and each kept mask maps back to its input set.
    """
    family = set(cutsets)
    bit_of = {
        name: 1 << i
        for i, name in enumerate(sorted(frozenset().union(*family)))
    }
    by_mask = {sum(bit_of[name] for name in member): member for member in family}
    return [by_mask[mask] for mask in minimize_masks(list(by_mask))]


def is_subsumed_mask(candidate: int, lookup: set[int], kept: list[int]) -> bool:
    """Whether some kept mask is a (non-strict) submask of ``candidate``.

    ``lookup`` and ``kept`` must hold the same non-empty masks (a hash
    set and a list).  Small candidates enumerate their submasks against
    ``lookup`` — constant work per candidate, unlike a pairwise scan,
    which degrades quadratically when one frequent event appears in
    most sets; larger ones scan ``kept``.  The MOCUS search uses the
    same test to prune partial cutsets against completed ones.
    """
    if candidate.bit_count() <= _SUBMASK_ENUM_LIMIT:
        # Standard submask walk: sub = (sub - 1) & candidate visits every
        # non-empty submask exactly once, the candidate itself first.
        sub = candidate
        while sub:
            if sub in lookup:
                return True
            sub = (sub - 1) & candidate
        return False
    for mask in kept:
        if mask & ~candidate == 0:
            return True
    return False


def minimize_masks(masks: list[int]) -> list[int]:
    """Inclusion-minimal members of a family of bitmasks.

    Candidates are processed in order of size, so any mask that could
    dominate a candidate is already kept.
    """
    by_size = sorted(set(masks), key=int.bit_count)
    if by_size and by_size[0] == 0:
        return [0]  # the empty set subsumes everything
    kept: list[int] = []
    kept_lookup: set[int] = set()
    for candidate in by_size:
        if kept_lookup and is_subsumed_mask(candidate, kept_lookup, kept):
            continue
        kept.append(candidate)
        kept_lookup.add(candidate)
    return kept


def cutset_probability(
    cutset: frozenset[str], probabilities: Mapping[str, float]
) -> float:
    """Probability that all events of ``cutset`` fail, ``prod p(a)``.

    This equals the total probability of all scenarios the cutset
    represents (paper, Section IV-A property ii), thanks to event
    independence.

    Factors multiply in sorted-name order so the rounded product is a
    pure function of the *logical* set: frozensets iterate in
    hash-table order, which varies with construction history, and an
    order-dependent product would make cutoff-boundary membership and
    probability-tie sort order differ between runs that built the same
    cutset differently (cold search vs warm cache vs incremental
    recomposition).
    """
    return sorted_probability(sorted(cutset), probabilities)


def sorted_probability(
    names: Iterable[str], probabilities: Mapping[str, float]
) -> float:
    """:func:`cutset_probability` of a cutset whose names are already sorted.

    The same product in the same order, so the same float, without
    sorting the names again.
    """
    result = 1.0
    for name in names:
        result *= probabilities[name]
    return result


@dataclass(frozen=True)
class CutSetList:
    """An ordered list of (minimal) cutsets with aggregation helpers.

    Construction does not re-minimise; use :meth:`from_cutsets` to
    minimise and sort by descending probability in one step.

    ``names`` (each cutset's events in sorted order) and ``values``
    (each cutset's canonical :func:`cutset_probability`) are derived
    once, at construction, and every aggregation reads them: a list is
    sorted, truncated and summed without re-multiplying a cutset.
    """

    cutsets: tuple[frozenset[str], ...]
    probabilities: Mapping[str, float]
    names: tuple[tuple[str, ...], ...] = field(
        default=(), compare=False, repr=False
    )
    values: tuple[float, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        if not len(self.names) == len(self.values) == len(self.cutsets):
            names = tuple(tuple(sorted(c)) for c in self.cutsets)
            object.__setattr__(self, "names", names)
            object.__setattr__(
                self,
                "values",
                tuple(sorted_probability(n, self.probabilities) for n in names),
            )

    @classmethod
    def from_cutsets(
        cls,
        cutsets: Iterable[frozenset[str]],
        probabilities: Mapping[str, float],
        minimal: bool = False,
    ) -> "CutSetList":
        """Build a list, minimising (unless already minimal) and sorting.

        Cutsets are ordered by descending probability and then
        lexicographically for determinism.
        """
        family = list(cutsets) if minimal else minimize(cutsets)
        names = [tuple(sorted(c)) for c in family]
        values = [sorted_probability(n, probabilities) for n in names]
        order = sorted(range(len(family)), key=lambda i: (-values[i], names[i]))
        return cls(
            tuple(family[i] for i in order),
            probabilities,
            tuple(names[i] for i in order),
            tuple(values[i] for i in order),
        )

    def _select(self, keep: Iterable[int]) -> "CutSetList":
        """The sub-list at the given ascending indices, keeping the
        derived fields."""
        indices = list(keep)
        return CutSetList(
            tuple(self.cutsets[i] for i in indices),
            self.probabilities,
            tuple(self.names[i] for i in indices),
            tuple(self.values[i] for i in indices),
        )

    def __len__(self) -> int:
        return len(self.cutsets)

    def __iter__(self) -> Iterator[frozenset[str]]:
        return iter(self.cutsets)

    def __getitem__(self, index: int) -> frozenset[str]:
        return self.cutsets[index]

    def probability_of(self, index: int) -> float:
        """Probability of the ``index``-th cutset."""
        return self.values[index]

    def rare_event(self) -> float:
        """Rare-event approximation: the sum of cutset probabilities.

        An over-approximation of the true failure probability because
        scenarios represented by several MCSs are counted once per MCS
        (paper, Section IV-A property iii).
        """
        return sum(self.values)

    def sound_estimate(self) -> tuple[float, str]:
        """A sound aggregation: ``(value, estimator)``.

        The rare-event sum is a provable over-approximation that can
        exceed 1.0 on high-probability models — the classical overshoot
        bug of first-order quantification.  This accessor serves the raw
        sum while it is a probability and switches to the (always sound,
        always tighter) :meth:`min_cut_upper_bound` the moment the sum
        overshoots, naming which estimator produced the value:
        ``"rare-event"`` or ``"min-cut-ub"``.
        """
        total = self.rare_event()
        if total > 1.0:
            return self.min_cut_upper_bound(), "min-cut-ub"
        return total, "rare-event"

    def largest_cutset_probability(self) -> float:
        """Probability of the most likely single cutset (0.0 when empty).

        A sound *lower* bound on the top-event probability of a coherent
        tree — the floor of the bracket
        ``largest <= exact <= rare-event sum`` the cross-checks assert.
        """
        return max(self.values, default=0.0)

    def min_cut_upper_bound(self) -> float:
        """The MCUB aggregation ``1 - prod (1 - p(C))``.

        Tighter than the rare-event sum and still an upper bound for
        coherent trees; exact when cutsets are disjoint.
        """
        log_complement = 0.0
        for p in self.values:
            if p >= 1.0:
                return 1.0
            log_complement += math.log1p(-p)
        return -math.expm1(log_complement)

    def inclusion_exclusion(self, max_terms: int | None = None) -> float:
        """Exact probability of the union by inclusion–exclusion.

        Exponential in the number of cutsets (``2^n - 1`` terms); the
        paper notes this is infeasible for large models, so callers must
        keep lists short.  ``max_terms`` truncates the expansion at a
        given intersection order, alternating between upper (odd orders)
        and lower (even orders) Bonferroni bounds.
        """
        n = len(self.cutsets)
        if max_terms is None:
            max_terms = n
        if n > 24 and max_terms >= n:
            raise ValueError(
                f"inclusion-exclusion over {n} cutsets is infeasible; "
                f"pass max_terms to truncate"
            )
        total = 0.0
        sign = 1.0
        for order in range(1, max_terms + 1):
            layer = 0.0
            for combo in itertools.combinations(self.cutsets, order):
                union: frozenset[str] = frozenset().union(*combo)
                layer += cutset_probability(union, self.probabilities)
            total += sign * layer
            sign = -sign
        return total

    def truncate(self, cutoff: float) -> "CutSetList":
        """Drop cutsets whose probability is at or below ``cutoff``."""
        return self._select(
            i for i, value in enumerate(self.values) if value > cutoff
        )

    def filtered(
        self, predicate: Callable[[frozenset[str]], bool]
    ) -> "CutSetList":
        """Keep only cutsets satisfying ``predicate``, preserving order."""
        return self._select(
            i for i, cutset in enumerate(self.cutsets) if predicate(cutset)
        )

    def size_histogram(self) -> dict[int, int]:
        """Map cutset size to the number of cutsets of that size."""
        histogram: dict[int, int] = {}
        for cutset in self.cutsets:
            histogram[len(cutset)] = histogram.get(len(cutset), 0) + 1
        return dict(sorted(histogram.items()))

    def events_involved(self) -> frozenset[str]:
        """All basic events that appear in at least one cutset."""
        involved: set[str] = set()
        for cutset in self.cutsets:
            involved |= cutset
        return frozenset(involved)


def verify_minimal(
    cutsets: Sequence[frozenset[str]],
) -> bool:
    """Return whether no cutset in the family contains another.

    Quadratic; intended for tests and assertions, not hot paths.
    """
    for a, b in itertools.permutations(cutsets, 2):
        if a < b:
            return False
    return True
