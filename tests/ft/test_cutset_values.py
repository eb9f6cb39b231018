"""Property: a cutset list's cached names and values are bit-identical to
the per-call canonical products they replace.

:class:`~repro.ft.cutsets.CutSetList` computes each cutset's sorted
names and its canonical probability once.  The oracle below is the
per-call formula every accessor used before: ``cutset_probability``
re-sorted and re-multiplied on each read.  Every comparison is ``==``
on floats — the cutoff rule and the served sums must not move by a
single rounding.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ft.cutsets import CutSetList, minimize
from repro.ft.mocus import MocusResult
from repro.ft.tree import BasicEvent, FaultTree, Gate, GateType

_NAMES = [f"e{i:02d}" for i in range(12)]


def _oracle_probability(cutset, probabilities):
    result = 1.0
    for name in sorted(cutset):
        result *= probabilities[name]
    return result


def _oracle_order(cutsets, probabilities, minimal):
    family = list(cutsets) if minimal else minimize(cutsets)
    family.sort(key=lambda c: (-_oracle_probability(c, probabilities), sorted(c)))
    return family


def _oracle_mcub(cutsets, probabilities):
    log_complement = 0.0
    for cutset in cutsets:
        p = _oracle_probability(cutset, probabilities)
        if p >= 1.0:
            return 1.0
        log_complement += math.log1p(-p)
    return -math.expm1(log_complement)


@st.composite
def _cases(draw):
    # Tied probabilities (sampled values) exercise the name tie-break;
    # free floats make the multiplication order matter.
    probability = st.one_of(
        st.sampled_from([1.0, 0.5, 0.1, 1e-3]),
        st.floats(1e-9, 1.0, allow_nan=False),
    )
    probabilities = {name: draw(probability) for name in _NAMES}
    family = draw(
        st.lists(
            st.frozensets(st.sampled_from(_NAMES), min_size=1, max_size=6),
            max_size=30,
        )
    )
    minimal = draw(st.booleans())
    if minimal:
        family = minimize(family)
    # A cutoff sitting exactly on a cutset's value tests the strict rule.
    values = [_oracle_probability(c, probabilities) for c in family]
    cutoff = draw(
        st.one_of(
            st.sampled_from(values or [0.0]),
            st.floats(0.0, 1.0, allow_nan=False),
        )
    )
    return family, probabilities, minimal, cutoff


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_cases())
def test_cached_values_equal_per_call_products(case):
    family, probabilities, minimal, cutoff = case
    listed = CutSetList.from_cutsets(family, probabilities, minimal=minimal)
    expected = _oracle_order(family, probabilities, minimal)

    assert list(listed.cutsets) == expected
    assert listed.values == tuple(
        _oracle_probability(c, probabilities) for c in expected
    )
    assert listed.names == tuple(tuple(sorted(c)) for c in expected)
    for index, cutset in enumerate(expected):
        assert listed.probability_of(index) == _oracle_probability(
            cutset, probabilities
        )

    truncated = listed.truncate(cutoff)
    kept = [c for c in expected if _oracle_probability(c, probabilities) > cutoff]
    assert list(truncated.cutsets) == kept
    assert truncated.values == tuple(
        _oracle_probability(c, probabilities) for c in kept
    )
    assert truncated.names == tuple(tuple(sorted(c)) for c in kept)

    total = sum(_oracle_probability(c, probabilities) for c in expected)
    assert listed.rare_event() == total
    mcub = _oracle_mcub(expected, probabilities)
    assert listed.min_cut_upper_bound() == mcub
    assert listed.sound_estimate() == (
        (mcub, "min-cut-ub") if total > 1.0 else (total, "rare-event")
    )
    assert listed.largest_cutset_probability() == max(
        (_oracle_probability(c, probabilities) for c in expected), default=0.0
    )
    # A list built directly derives the same fields as from_cutsets.
    direct = CutSetList(tuple(expected), probabilities)
    assert direct.values == listed.values
    assert direct.names == listed.names


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_cases())
def test_from_family_full_cutsets_equal_per_call_sort(case):
    family, probabilities, minimal, cutoff = case
    tree = FaultTree(
        "top",
        [BasicEvent(name, p) for name, p in probabilities.items()],
        [Gate("top", GateType.OR, tuple(_NAMES))],
    )
    result = MocusResult.from_family(
        [sorted(c) for c in family], tree, cutoff, minimal=minimal
    )
    complete = _oracle_order(family, probabilities, minimal)
    assert result.full_cutsets == tuple(tuple(sorted(c)) for c in complete)
    served = (
        [c for c in complete if _oracle_probability(c, probabilities) > cutoff]
        if cutoff > 0.0
        else complete
    )
    assert list(result.cutsets) == served
    assert result.cutsets.values == tuple(
        _oracle_probability(c, probabilities) for c in served
    )
