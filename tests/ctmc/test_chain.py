"""Tests of the CTMC model class."""

import json

import numpy as np
import pytest

from repro.ctmc.builders import exponential_failure
from repro.ctmc.chain import Ctmc
from repro.errors import (
    InvalidProbabilityError,
    InvalidRateError,
    ModelError,
)
from repro.models.formats import load_model, save_model


def _two_state():
    return Ctmc(
        ["ok", "fail"],
        {"ok": 1.0},
        {("ok", "fail"): 0.1, ("fail", "ok"): 0.5},
        ["fail"],
    )


class TestValidation:
    def test_duplicate_states_rejected(self):
        with pytest.raises(ModelError):
            Ctmc(["s", "s"], {"s": 1.0}, {}, [])

    def test_empty_chain_rejected(self):
        with pytest.raises(ModelError):
            Ctmc([], {}, {}, [])

    def test_initial_must_sum_to_one(self):
        with pytest.raises(InvalidProbabilityError):
            Ctmc(["a", "b"], {"a": 0.6, "b": 0.6}, {}, [])

    def test_negative_initial_rejected(self):
        with pytest.raises(InvalidProbabilityError):
            Ctmc(["a", "b"], {"a": -0.5, "b": 1.5}, {}, [])

    @pytest.mark.parametrize("probability", [float("nan"), float("inf")])
    def test_non_finite_initial_rejected(self, probability):
        """A NaN entry passes both ``< 0`` and the sum tolerance, so it
        must be rejected on its own rather than filtered out as zero."""
        with pytest.raises(InvalidProbabilityError):
            Ctmc(["a", "b"], {"a": 1.0, "b": probability}, {}, [])

    def test_unknown_states_rejected_everywhere(self):
        with pytest.raises(ModelError):
            Ctmc(["a"], {"ghost": 1.0}, {}, [])
        with pytest.raises(ModelError):
            Ctmc(["a"], {"a": 1.0}, {("a", "ghost"): 1.0}, [])
        with pytest.raises(ModelError):
            Ctmc(["a"], {"a": 1.0}, {}, ["ghost"])

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidRateError):
            Ctmc(["a"], {"a": 1.0}, {("a", "a"): 1.0}, [])

    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidRateError):
            Ctmc(["a", "b"], {"a": 1.0}, {("a", "b"): -1.0}, [])

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(InvalidRateError):
            Ctmc(["a", "b"], {"a": 1.0}, {("a", "b"): rate}, [])
        with pytest.raises(InvalidRateError):
            exponential_failure(rate)

    def test_model_file_with_nan_repair_rate_rejected(self, cooling_sdft, tmp_path):
        """A NaN rate fails the load instead of reading as "no transition"
        (which would serve the answer of the model without repair)."""
        path = tmp_path / "cooling.json"
        save_model(cooling_sdft, path)
        data = json.loads(path.read_text())
        (pump,) = [e for e in data["dynamic_events"] if e["name"] == "b"]
        repairs = [r for r in pump["chain"]["rates"] if r[0] == ["on", 1]]
        assert len(repairs) == 1
        repairs[0][2] = float("nan")
        path.write_text(json.dumps(data))
        with pytest.raises(InvalidRateError):
            load_model(path)

    def test_model_file_with_nan_initial_probability_rejected(
        self, cooling_sdft, tmp_path
    ):
        """A NaN initial entry fails the load instead of being dropped
        (which would serve the answer of the clean model)."""
        path = tmp_path / "cooling.json"
        save_model(cooling_sdft, path)
        data = json.loads(path.read_text())
        (pump,) = [e for e in data["dynamic_events"] if e["name"] == "b"]
        pump["chain"]["initial"].append([["on", 1], float("nan")])
        path.write_text(json.dumps(data))
        with pytest.raises(InvalidProbabilityError):
            load_model(path)

    def test_zero_rates_dropped(self):
        chain = Ctmc(["a", "b"], {"a": 1.0}, {("a", "b"): 0.0}, [])
        assert chain.n_transitions == 0


class TestAccessors:
    def test_sizes(self):
        chain = _two_state()
        assert chain.n_states == 2
        assert chain.n_transitions == 2

    def test_exit_rate_and_successors(self):
        chain = _two_state()
        assert chain.exit_rate("ok") == pytest.approx(0.1)
        assert chain.successors("fail") == [("ok", 0.5)]


class TestMatrices:
    def test_initial_vector(self):
        chain = _two_state()
        assert np.allclose(chain.initial_vector(), [1.0, 0.0])

    def test_failed_mask(self):
        chain = _two_state()
        assert list(chain.failed_mask()) == [False, True]

    def test_generator_rows_sum_to_zero(self):
        chain = _two_state()
        generator = chain.generator_matrix().toarray()
        assert np.allclose(generator.sum(axis=1), 0.0)
        assert generator[0, 1] == pytest.approx(0.1)
        assert generator[0, 0] == pytest.approx(-0.1)


class TestDerivedChains:
    def test_with_absorbing_removes_outgoing(self):
        chain = _two_state().with_absorbing(["fail"])
        assert chain.successors("fail") == []
        assert chain.successors("ok") == [("fail", 0.1)]

    def test_with_initial(self):
        chain = _two_state().with_initial({"fail": 1.0})
        assert chain.initial == {"fail": 1.0}

    def test_relabel(self):
        chain = _two_state().relabel({"ok": "up", "fail": "down"})
        assert set(chain.states) == {"up", "down"}
        assert chain.failed == {"down"}
        assert chain.successors("up") == [("down", 0.1)]

    def test_relabel_must_be_injective(self):
        with pytest.raises(ModelError):
            _two_state().relabel({"ok": "x", "fail": "x"})
