"""Incremental cutset generation and the canonical-cutoff contract."""

from __future__ import annotations

import math
from dataclasses import replace

from repro.core.analyzer import AnalysisOptions, analyze
from repro.ft.cutsets import cutset_probability
from repro.ft.mocus import MocusOptions
from repro.ft.tree import BasicEvent, FaultTree, Gate, GateType
from repro.service.edits import ScaleRates, SetProbability
from repro.service.incremental import FamilyCache, incremental_cutsets
from repro.service.session import AnalysisSession, assert_bit_identical


def test_rate_decrease_uses_retruncate(cooling_sdft, options, tmp_path):
    # Second input, a warm cache: an earlier analysis stores the model's
    # cutsets, so the session's first analysis takes them from the MOCUS
    # layer — the family it remembers must still allow the fast path.
    warm = replace(options, cache_dir=str(tmp_path))
    analyze(cooling_sdft, warm)
    for opts in (options, warm):
        session = AnalysisSession(cooling_sdft, opts)
        first = session.analyze()
        restored = [
            event for event in first.health.events
            if event.message.startswith("mocus:")
        ]
        assert len(restored) == (opts is warm)
        session.edit(ScaleRates("b", 0.5))
        session.reanalyze(crosscheck=True)
        assert session.last_mode == "retruncate"
        assert session.incremental_runs == 1


def test_rate_increase_still_bit_identical(cooling_sdft, options):
    # Increasing a probability can admit new cutsets, so the retruncate
    # fast path must refuse; whatever mode serves instead (modular or a
    # cold fallback) has to agree with the cold run bit for bit.
    session = AnalysisSession(cooling_sdft, options)
    session.analyze()
    session.edit(ScaleRates("b", 4.0))
    session.reanalyze(crosscheck=True)
    assert session.last_mode in ("modular", "full")


def test_module_families_are_computed_once_per_session(cooling_sdft, options):
    # A module's complete family depends on its structure only, so
    # raising edits of different events, static and dynamic, all reuse
    # the family the first modular run compiled.
    session = AnalysisSession(cooling_sdft, options)
    session.analyze()
    misses = []
    for edit in (
        ScaleRates("b", 4.0),
        SetProbability("a", 8e-3),
        ScaleRates("d", 4.0),
        SetProbability("e", 1e-5),
    ):
        session.edit(edit)
        session.reanalyze(crosscheck=True)
        assert session.last_mode == "modular"
        misses.append(session.families.misses)
    assert misses[0] >= 1
    assert misses == [misses[0]] * len(misses)
    assert session.families.hits == 3 * misses[0]


def test_module_bdd_over_budget_falls_back_to_full(cooling_sdft, options):
    # Two nodes are the BDD's terminals: any module compile trips.
    tight = replace(options, bdd_node_budget=2)
    session = AnalysisSession(cooling_sdft, tight)
    session.analyze()
    session.edit(ScaleRates("b", 4.0))
    warm = session.reanalyze()
    assert session.last_mode == "full"
    assert session.incremental_runs == 0
    assert_bit_identical(warm, analyze(session.model, tight))


def test_module_family_over_max_cutsets_falls_back():
    # An AND of eight 8-event ORs has 8**8 minimal cutsets but a small
    # BDD: the family is counted before it is listed, and one larger
    # than max_cutsets sends the run to the full search.
    events = [BasicEvent(f"e{i}{j}", 1e-3) for i in range(8) for j in range(8)]
    ors = [
        Gate(f"or{i}", GateType.OR, tuple(f"e{i}{j}" for j in range(8)))
        for i in range(8)
    ]
    module = Gate("module", GateType.AND, tuple(gate.name for gate in ors))
    top = Gate("top", GateType.OR, ("module", "x"))
    tree = FaultTree(
        "top", events + [BasicEvent("x", 1e-2)], ors + [module, top]
    )
    options = MocusOptions(cutoff=1e-15)
    assert incremental_cutsets(tree, options, FamilyCache()) is None


def test_repeated_edits_stay_bit_identical(cooling_sdft, options):
    session = AnalysisSession(cooling_sdft, options)
    session.analyze()
    for edit in (
        SetProbability("e", 5e-6),
        ScaleRates("d", 0.25),
        SetProbability("a", 8e-3),
        ScaleRates("d", 4.0),
    ):
        session.edit(edit)
        session.reanalyze(crosscheck=True)


def test_cutset_probability_is_order_independent():
    # frozenset iteration order depends on hash-table construction
    # history, so the rounded product must not follow it: the canonical
    # product iterates the *sorted* cutset.
    names = [f"EV-{i:02d}" for i in range(12)]
    probabilities = {n: 0.1 + 0.001 * i for i, n in enumerate(names)}
    forward = frozenset(names)
    backward = frozenset(reversed(names))
    grown = frozenset()
    for name in names[::2] + names[1::2]:
        grown = grown | {name}
    canonical = math.prod(probabilities[n] for n in sorted(names))
    assert cutset_probability(forward, probabilities) == canonical
    assert cutset_probability(backward, probabilities) == canonical
    assert cutset_probability(grown, probabilities) == canonical


def test_cold_mocus_membership_is_canonical():
    """Regression: boundary cutsets survive search-order rounding.

    Three all-static BWR cutsets have a canonical probability a couple
    of ULPs *above* the 1e-15 cutoff, but the search's running product
    — multiplied in a different order — rounds to exactly 1e-15 and
    used to be pruned mid-search.  The in-search cutoff now carries a
    relative slack and the final strict truncation (canonical product)
    decides membership, so the cold list is a pure function of the
    model.
    """
    from repro.models.bwr import build_bwr

    result = analyze(build_bwr(), AnalysisOptions(horizon=24.0, cutoff=1e-15))
    boundary = frozenset(
        {
            "ECC-A-BREAKER",
            "ECC-B-MOV-FTO",
            "EFW-A-MOV-FTO",
            "EFW-B-DC-BUS",
            "IE-TRANSIENT",
        }
    )
    cutsets = {record.cutset for record in result.records}
    assert boundary in cutsets
