"""Tests of the multi-initiator Study and the failure-probability curve."""

import pytest

from repro.core.analyzer import AnalysisOptions, analyze, analyze_curve
from repro.core.sdft import SdFaultTreeBuilder
from repro.errors import ModelError
from repro.eventtree.study import Study
from repro.eventtree.tree import EventTreeBuilder


class TestAnalyzeCurve:
    def test_matches_individual_analyses(self, cooling_sdft):
        """Each point is exactly what ``analyze()`` serves at that horizon,
        on a dynamic model and on a static one served by the BDD engine."""
        b = SdFaultTreeBuilder("static-five")
        for name, probability in (
            ("a", 3e-2), ("b", 2e-2), ("c", 3e-2), ("d", 2e-2), ("e", 3e-4)
        ):
            b.static_event(name, probability)
        b.or_("ab", "a", "b").or_("cd", "c", "d")
        b.and_("both", "ab", "cd").or_("top", "both", "e")
        static_sdft = b.build("top")
        horizons = [6.0, 24.0, 96.0]
        for sdft in (cooling_sdft, static_sdft):
            curve = analyze_curve(sdft, horizons)
            for horizon in horizons:
                individual = analyze(
                    sdft, AnalysisOptions(horizon=horizon)
                ).failure_probability
                assert curve[horizon] == individual

    def test_per_run_outputs_not_forwarded(self, cooling_sdft, tmp_path):
        """A trace or checkpoint path names one run's files; the curve's
        inner runs write neither."""
        options = AnalysisOptions(
            trace_path=str(tmp_path / "t.jsonl"),
            checkpoint_path=str(tmp_path / "run.ckpt"),
        )
        curve = analyze_curve(cooling_sdft, [6.0, 24.0], options)
        assert list(tmp_path.iterdir()) == []
        assert curve == analyze_curve(cooling_sdft, [6.0, 24.0])

    def test_monotone_nondecreasing(self, cooling_sdft):
        curve = analyze_curve(cooling_sdft, [1.0, 12.0, 48.0, 200.0])
        values = [curve[t] for t in sorted(curve)]
        for earlier, later in zip(values, values[1:]):
            assert later >= earlier - 1e-12

    def test_duplicate_horizons_collapse(self, cooling_sdft):
        curve = analyze_curve(cooling_sdft, [24.0, 24.0, 24.0])
        assert list(curve) == [24.0]

    def test_empty_horizons(self, cooling_sdft):
        assert analyze_curve(cooling_sdft, []) == {}

    def test_negative_horizon_rejected(self, cooling_sdft):
        with pytest.raises(ValueError):
            analyze_curve(cooling_sdft, [-1.0, 24.0])


class TestStudy:
    def _study(self, cooling_sdft):
        study = Study(cooling_sdft, "mini-study")
        study.add_initiator(
            EventTreeBuilder("TRANSIENT", "transient", 0.5)
            .functional_event("PUMPS", "pumps")
            .sequence("T-CD", "CD", PUMPS=True)
            .build()
        )
        study.add_initiator(
            EventTreeBuilder("LOCA", "small LOCA", 0.01)
            .functional_event("PUMPS", "pumps")
            .functional_event("TANK", "tank-wrap")
            .sequence("L-CD", "CD", PUMPS=True)
            .sequence("L-SEVERE", "SEVERE", PUMPS=True, TANK=True)
            .build()
        )
        return study

    @pytest.fixture
    def wrapped_sdft(self, cooling_sdft):
        """The cooling SD model with a wrapper gate for the tank."""
        b = SdFaultTreeBuilder("cooling+wrap")
        for event in cooling_sdft.static_events.values():
            b.static_event(event.name, event.probability)
        for event in cooling_sdft.dynamic_events.values():
            b.dynamic_event(event.name, event.chain)
        for gate in cooling_sdft.gates.values():
            b.gate(gate.name, gate.gate_type, gate.children, gate.k)
        b.or_("tank-wrap", "e")
        b.trigger("pump1", "d")
        return b.build("cooling")

    def test_totals_aggregate_initiators(self, wrapped_sdft):
        study = self._study(wrapped_sdft)
        result = study.quantify(AnalysisOptions(horizon=24.0))
        t_cd = result.by_initiator["TRANSIENT"].consequence_frequency("CD")
        l_cd = result.by_initiator["LOCA"].consequence_frequency("CD")
        assert result.totals["CD"] == pytest.approx(t_cd + l_cd)
        assert "SEVERE" in result.totals

    def test_dominant_initiator(self, wrapped_sdft):
        study = self._study(wrapped_sdft)
        result = study.quantify(AnalysisOptions(horizon=24.0))
        # The transient's frequency (0.5) dwarfs the LOCA's (0.01).
        assert result.dominant_initiator("CD") == "TRANSIENT"
        assert result.contribution("TRANSIENT", "CD") > 0.9
        assert result.contribution("TRANSIENT", "CD") + result.contribution(
            "LOCA", "CD"
        ) == pytest.approx(1.0)

    def test_duplicate_initiator_rejected(self, wrapped_sdft):
        study = self._study(wrapped_sdft)
        with pytest.raises(ModelError):
            study.add_initiator(
                EventTreeBuilder("TRANSIENT", "again", 0.1)
                .functional_event("PUMPS", "pumps")
                .sequence("S", "CD", PUMPS=True)
                .build()
            )

    def test_empty_study_rejected(self, wrapped_sdft):
        with pytest.raises(ModelError):
            Study(wrapped_sdft).quantify()

    def test_contribution_of_absent_consequence(self, wrapped_sdft):
        study = self._study(wrapped_sdft)
        result = study.quantify(AnalysisOptions(horizon=24.0))
        assert result.contribution("TRANSIENT", "NOPE") == 0.0
        assert result.dominant_initiator("NOPE") is None
