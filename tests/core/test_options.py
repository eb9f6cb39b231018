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
        ("epsilon", 2.0, "epsilon"),
        ("epsilon", 1.0, "epsilon"),
        ("epsilon", 0.0, "epsilon"),
        ("epsilon", -1e-12, "epsilon"),
        ("pool_task_timeout_seconds", 0, "pool_task_timeout_seconds"),
        ("pool_task_timeout_seconds", -1, "pool_task_timeout_seconds"),
        ("horizon", -5.0, "horizon"),
        ("horizon", float("nan"), "horizon"),
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
