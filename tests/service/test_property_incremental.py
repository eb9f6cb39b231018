"""Property: any single edit + reanalyze() is bit-identical to cold.

The acceptance property of the incremental engine, exercised across
the edit vocabulary, serial and parallel quantification, and with the
persistent solve cache on and off: for any supported single edit,

    session.analyze(); session.edit(e); session.reanalyze()

produces exactly the result of ``analyze(apply_edits(model, [e]))`` —
same probability, method, interval, and per-record semantic fields.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.analyzer import AnalysisOptions, analyze
from repro.service.edits import ScaleRates, SetProbability, apply_edits
from repro.service.session import AnalysisSession, assert_bit_identical
from tests.strategies import sd_fault_trees

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
