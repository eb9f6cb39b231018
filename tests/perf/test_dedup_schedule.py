"""Model signatures and largest-first scheduling."""

from dataclasses import dataclass

from repro.core.cutset_model import build_cutset_model
from repro.perf.fingerprint import model_signature
from repro.perf.schedule import (
    ESTIMATE_CAP,
    estimate_chain_states,
    order_largest_first,
)


@dataclass
class _FakeTask:
    estimated_states: int
    name: str = ""


class TestSignature:
    def test_real_cutset_models_share_a_signature(self, cooling_sdft):
        """Separately built models of {b,d} → one quantification."""
        signatures = {
            model_signature(
                build_cutset_model(cooling_sdft, frozenset({"b", "d"})).model,
                24.0,
            )
            for _ in range(2)
        }
        assert len(signatures) == 1


class TestSchedule:
    def test_estimate_multiplies_local_state_spaces(self, cooling_sdft):
        model = build_cutset_model(cooling_sdft, frozenset({"b", "d"}))
        # b: 2-state repairable, d: 4-state triggered repairable — the
        # FT_C of {b, d} has no static guards.
        assert estimate_chain_states(model.model) == 2 * 4

    def test_estimate_caps(self, cooling_sdft):
        model = build_cutset_model(cooling_sdft, frozenset({"b", "d"}))
        big = model.model
        # A pathological horizon of chains would overflow; the cap holds.
        estimate = 1
        for _ in range(100):
            estimate = min(ESTIMATE_CAP, estimate * 4)
        assert estimate == ESTIMATE_CAP
        assert estimate_chain_states(big) <= ESTIMATE_CAP

    def test_orders_largest_first_stable(self):
        tasks = [
            _FakeTask(4, "a"),
            _FakeTask(16, "b"),
            _FakeTask(4, "c"),
            _FakeTask(8, "d"),
        ]
        ordered = order_largest_first(tasks)
        assert [t.name for t in ordered] == ["b", "d", "a", "c"]
