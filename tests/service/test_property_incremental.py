"""Property: any single edit + reanalyze() is bit-identical to cold.

The acceptance property of the incremental engine, exercised across
the edit vocabulary, serial and parallel quantification, and with the
persistent solve cache on and off: for any supported single edit,

    session.analyze(); session.edit(e); session.reanalyze()

produces exactly the result of ``analyze(apply_edits(model, [e]))`` —
same probability, method, interval, and per-record semantic fields.
"""

from __future__ import annotations

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.analyzer import AnalysisOptions, analyze
from repro.core.to_static import to_static
from repro.ft.cutsets import minimize
from repro.ft.mocus import MocusOptions
from repro.service.edits import ScaleRates, SetProbability, apply_edits
from repro.service.incremental import FamilyCache, incremental_cutsets
from repro.service.session import AnalysisSession, assert_bit_identical
from tests.strategies import mixed_sd_fault_trees, sd_fault_trees

_EDITS = st.one_of(
    st.builds(
        SetProbability,
        st.sampled_from(["a", "c", "e"]),
        st.sampled_from([1e-6, 1e-4, 5e-3, 0.02, 0.3]),
    ),
    st.builds(
        ScaleRates,
        st.sampled_from(["b", "d"]),
        st.sampled_from([0.25, 0.5, 1.0, 1.7, 4.0]),
    ),
)


@given(
    edit=_EDITS,
    jobs=st.sampled_from([1, 2]),
    cache=st.booleans(),
)
# A cache directory shared across examples is deliberate — warm cache
# hits are part of what the bit-identity contract must survive.
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_single_edit_reanalyze_bit_identical(
    cooling_sdft, tmp_path, edit, jobs, cache
):
    options = AnalysisOptions(
        horizon=24.0,
        cutoff=1e-15,
        jobs=jobs,
        cache_dir=str(tmp_path / "solve-cache") if cache else None,
    )
    session = AnalysisSession(cooling_sdft, options)
    session.analyze()
    session.edit(edit)
    warm = session.reanalyze()
    cold = analyze(apply_edits(cooling_sdft, [edit]), options)
    assert_bit_identical(warm, cold)


@st.composite
def _raised_models(draw):
    """A random SD model with one edit that raises a probability.

    Three in four models are tree-shaped, so their gates are modules and
    the edit is served by recomposing module families.

    ``ScaleRates`` by a factor above one speeds a dynamic event's chain
    up; ``SetProbability`` above the current value raises a static one.
    Either may admit new cutsets, so the retruncate path must refuse and
    the module families get recomposed under the new probabilities.
    """
    tree_shaped = draw(st.sampled_from([True, True, True, False]))
    model = draw(sd_fault_trees(max_static=4, tree_shaped=tree_shaped))
    dynamic = sorted(model.dynamic_events)
    static = sorted(model.static_events)
    if static and draw(st.booleans()):
        event = draw(st.sampled_from(static))
        old = model.static_events[event].probability
        factor = draw(st.sampled_from([1.5, 3.0, 10.0]))
        return model, SetProbability(event, min(old * factor, 0.9))
    event = draw(st.sampled_from(dynamic))
    return model, ScaleRates(event, draw(st.sampled_from([1.5, 2.0, 8.0])))


@given(
    case=_raised_models(),
    # Cutoffs in the range of the cutset probabilities make the bound
    # pruning of the context search and of the composition decide.
    cutoff=st.sampled_from([0.0, 1e-15, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1]),
    node_budget=st.sampled_from([200_000, 2]),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_raising_edit_on_random_models_bit_identical(case, cutoff, node_budget):
    # A budget of two nodes (the terminals) trips on any module BDD, so
    # such a run falls back to the full search; the default budget
    # serves the modular path.
    model, edit = case
    options = AnalysisOptions(
        horizon=12.0, cutoff=cutoff, bdd_node_budget=node_budget
    )
    session = AnalysisSession(model, options)
    session.analyze()
    session.edit(edit)
    warm = session.reanalyze()
    cold = analyze(apply_edits(model, [edit]), options)
    assert_bit_identical(warm, cold)


@given(
    model=sd_fault_trees(max_static=4, tree_shaped=True),
    cutoff=st.sampled_from([0.0, 1e-15, 1e-4, 1e-3, 1e-2]),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_modular_composition_is_minimal(model, cutoff):
    """The module theorem: composing minimal context cutsets with the
    minimal families of disjoint modules gives a minimal family, so the
    modular path serves its composition without re-minimising it."""
    tree = to_static(model, 12.0).tree
    found = incremental_cutsets(tree, MocusOptions(cutoff=cutoff), FamilyCache())
    assume(found is not None)
    result, stats = found
    assert stats.mode == "modular"
    composed = [frozenset(cutset) for cutset in result.full_cutsets]
    assert len(set(composed)) == len(composed)
    assert set(minimize(composed)) == set(composed)


def _edit_of(model, draw):
    """One edit of ``model`` and the edit that undoes it exactly.

    Power-of-two rate factors undo bit-exactly, so the undo restores a
    chain with the original content (and fingerprint); the factor 3
    does not, so its undo leaves a chain that differs in the last bits.
    """
    static = sorted(model.static_events)
    if static and draw(st.booleans()):
        event = draw(st.sampled_from(static))
        old = model.static_events[event].probability
        new = draw(st.sampled_from([1e-4, 0.5 * old, min(3.0 * old, 0.9)]))
        return SetProbability(event, new), SetProbability(event, old)
    event = draw(st.sampled_from(sorted(model.dynamic_events)))
    factor = draw(st.sampled_from([0.25, 0.5, 2.0, 3.0, 8.0]))
    return ScaleRates(event, factor), ScaleRates(event, 1.0 / factor)


@st.composite
def _edit_sequences(draw):
    """A model plus edit, its undo and a different edit, applied in order.

    Half the models are tree-shaped, so their raising edits are served
    by the modular path.
    """
    model = draw(mixed_sd_fault_trees(max_static=4))
    first, undo = _edit_of(model, draw)
    second, _ = _edit_of(model, draw)
    assume(second != first)
    return model, (first, undo, second)


@given(
    case=_edit_sequences(),
    cutoff=st.sampled_from([0.0, 1e-15, 1e-4, 1e-2]),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_edit_undo_edit_sequence_bit_identical(case, cutoff):
    """One session carries its worst cases, solve store and module
    families across an edit, its undo and another edit; every result
    equals a cold analysis of the model it answers for."""
    model, edits = case
    options = AnalysisOptions(horizon=12.0, cutoff=cutoff)
    session = AnalysisSession(model, options)
    session.analyze()
    for edit in edits:
        session.edit(edit)
        warm = session.reanalyze()
        assert_bit_identical(warm, analyze(session.model, options))
