"""``AnalysisOptions`` validates every knob when it is constructed."""

import pytest

from repro.core.analyzer import AnalysisOptions


@pytest.mark.parametrize(
    ("knob", "value", "message"),
    [
        ("static_engine", "quantum", "static_engine"),
        ("verify", "always", "verify mode"),
        ("on_oversize", "guess", "on_oversize"),
        ("mc_engine", "bogus", "mc_engine"),
        ("jobs", 0, "jobs"),
        ("jobs", "many", "invalid literal"),
        ("cutoff", -1.0, "cutoff"),
        ("cutoff", float("nan"), "cutoff"),
        ("epsilon", 2.0, "epsilon"),
        ("epsilon", 1.0, "epsilon"),
        ("epsilon", 0.0, "epsilon"),
        ("epsilon", -1e-12, "epsilon"),
        ("mc_target_rel_error", 0.0, "mc_target_rel_error"),
        ("mc_target_rel_error", -0.1, "mc_target_rel_error"),
        ("monte_carlo_runs", 0, "monte_carlo_runs"),
    ],
)
def test_rejects_invalid_value(knob, value, message):
    with pytest.raises(ValueError, match=message):
        AnalysisOptions(**{knob: value})


def test_defaults_and_documented_choices_are_accepted():
    AnalysisOptions()
    for engine in ("auto", "crude", "is", "splitting"):
        AnalysisOptions(mc_engine=engine)
    for mode in ("off", "cheap", "full"):
        AnalysisOptions(verify=mode)
    AnalysisOptions(jobs="auto", cutoff=0.0, on_oversize="bounds")
