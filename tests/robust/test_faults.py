"""Unit tests of the fault-injection hook (repro.robust.faults)."""

from __future__ import annotations

import pytest

from repro.errors import InjectedFaultError, NumericalError
from repro.robust import faults


def test_check_is_a_noop_when_unarmed():
    faults.check("transient_solve")
    faults.check("anything", cutset=frozenset({"x"}))


def test_inject_raises_within_block_only():
    with faults.inject("transient_solve"):
        with pytest.raises(InjectedFaultError):
            faults.check("transient_solve")
    faults.check("transient_solve")


def test_other_stages_unaffected():
    with faults.inject("transient_solve"):
        faults.check("chain_build")
        faults.check("mocus")


def test_instance_is_raised_as_is():
    error = NumericalError("forced")
    with faults.inject("bound", error):
        with pytest.raises(NumericalError) as excinfo:
            faults.check("bound")
        assert excinfo.value is error


def test_class_is_instantiated_per_trip():
    with faults.inject("bound", NumericalError):
        with pytest.raises(NumericalError, match="trip 1"):
            faults.check("bound")
        with pytest.raises(NumericalError, match="trip 2"):
            faults.check("bound")


def test_times_limits_trips():
    with faults.inject("transient_solve", times=2) as fault:
        for _ in range(2):
            with pytest.raises(InjectedFaultError):
                faults.check("transient_solve")
        faults.check("transient_solve")
        assert fault.trips == 2


def test_when_predicate_gates_on_context():
    target = frozenset({"b", "d"})
    with faults.inject(
        "transient_solve", when=lambda cutset=None, **_: cutset == target
    ) as fault:
        faults.check("transient_solve", cutset=frozenset({"a", "d"}))
        with pytest.raises(InjectedFaultError):
            faults.check("transient_solve", cutset=target)
        assert fault.trips == 1
        assert faults.trip_count("transient_solve") == 1


def test_nested_injections_unwind_independently():
    with faults.inject("mocus", times=0):
        with faults.inject("mocus"):
            with pytest.raises(InjectedFaultError):
                faults.check("mocus")
        # Inner disarmed, outer (exhausted) stays armed but never trips.
        faults.check("mocus")


def test_clear_disarms_everything():
    with faults.inject("mocus"), faults.inject("checkpoint"):
        faults.clear()
        faults.check("mocus")
        faults.check("checkpoint")
