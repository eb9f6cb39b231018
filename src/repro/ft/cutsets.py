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
  (:class:`CutSetList`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "CutSet",
    "minimize",
    "minimize_masks",
    "is_subsumed_mask",
    "cutset_probability",
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
    result = 1.0
    for name in sorted(cutset):
        result *= probabilities[name]
    return result


@dataclass(frozen=True)
class CutSetList:
    """An ordered list of (minimal) cutsets with aggregation helpers.

    Construction does not re-minimise; use :meth:`from_cutsets` to
    minimise and sort by descending probability in one step.
    """

    cutsets: tuple[frozenset[str], ...]
    probabilities: Mapping[str, float]

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
        family.sort(key=lambda c: (-cutset_probability(c, probabilities), sorted(c)))
        return cls(tuple(family), probabilities)

    def __len__(self) -> int:
        return len(self.cutsets)

    def __iter__(self) -> Iterator[frozenset[str]]:
        return iter(self.cutsets)

    def __getitem__(self, index: int) -> frozenset[str]:
        return self.cutsets[index]

    def probability_of(self, index: int) -> float:
        """Probability of the ``index``-th cutset."""
        return cutset_probability(self.cutsets[index], self.probabilities)

    def rare_event(self) -> float:
        """Rare-event approximation: the sum of cutset probabilities.

        An over-approximation of the true failure probability because
        scenarios represented by several MCSs are counted once per MCS
        (paper, Section IV-A property iii).
        """
        return sum(cutset_probability(c, self.probabilities) for c in self.cutsets)

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
        if not self.cutsets:
            return 0.0
        return max(
            cutset_probability(c, self.probabilities) for c in self.cutsets
        )

    def min_cut_upper_bound(self) -> float:
        """The MCUB aggregation ``1 - prod (1 - p(C))``.

        Tighter than the rare-event sum and still an upper bound for
        coherent trees; exact when cutsets are disjoint.
        """
        log_complement = 0.0
        for cutset in self.cutsets:
            p = cutset_probability(cutset, self.probabilities)
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
        kept = tuple(
            c
            for c in self.cutsets
            if cutset_probability(c, self.probabilities) > cutoff
        )
        return CutSetList(kept, self.probabilities)

    def filtered(
        self, predicate: Callable[[frozenset[str]], bool]
    ) -> "CutSetList":
        """Keep only cutsets satisfying ``predicate``, preserving order."""
        return CutSetList(
            tuple(c for c in self.cutsets if predicate(c)), self.probabilities
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
