"""``AnalysisOptions`` validates every knob when it is constructed."""

import pytest

from repro.core.analyzer import AnalysisOptions


@pytest.mark.parametrize(
    ("knob", "value", "message"),
    [
        ("verify", "always", "verify mode"),
        ("jobs", 0, "jobs"),
        ("jobs", "many", "invalid literal"),
        ("cutoff", -1.0, "cutoff"),
        ("cutoff", float("nan"), "cutoff"),
        ("cutoff", float("inf"), "cutoff"),
        ("cutoff", 1.0, "cutoff"),
        ("cutoff", 2.0, "cutoff"),
        ("epsilon", 2.0, "epsilon"),
        ("epsilon", 1.0, "epsilon"),
        ("epsilon", 0.0, "epsilon"),
        ("epsilon", -1e-12, "epsilon"),
        ("pool_task_timeout_seconds", 0, "pool_task_timeout_seconds"),
        ("pool_task_timeout_seconds", -1, "pool_task_timeout_seconds"),
        ("horizon", -5.0, "horizon"),
        ("horizon", float("nan"), "horizon"),
        ("max_chain_states", 0, "max_chain_states"),
        ("max_partials", 0, "max_partials"),
        ("bdd_node_budget", 0, "bdd_node_budget"),
        ("bdd_node_budget", -5, "bdd_node_budget"),
        ("wall_seconds", -1.0, "wall_seconds"),
        ("wall_seconds", float("nan"), "wall_seconds"),
        ("wall_seconds", float("inf"), "wall_seconds"),
        ("max_total_states", -1, "max_total_states"),
        ("budget_cutsets", -1, "budget_cutsets"),
        ("checkpoint_interval_seconds", -1.0, "checkpoint_interval_seconds"),
        ("checkpoint_interval_seconds", float("nan"), "checkpoint_interval"),
    ],
)
def test_rejects_invalid_value(knob, value, message):
    with pytest.raises(ValueError, match=message):
        AnalysisOptions(**{knob: value})


def test_defaults_and_documented_choices_are_accepted():
    AnalysisOptions()
    for mode in ("off", "cheap", "full"):
        AnalysisOptions(verify=mode)
    AnalysisOptions(jobs="auto", cutoff=0.0, fault_isolation=True)
    # Zero deadlines, budgets and throttle intervals are valid: they
    # expire, truncate or snapshot at the first check.
    AnalysisOptions(
        wall_seconds=0.0,
        max_total_states=0,
        budget_cutsets=0,
        checkpoint_interval_seconds=0.0,
    )
