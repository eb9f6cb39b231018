"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import hypothesis
import pytest

from repro.core.sdft import SdFaultTreeBuilder
from repro.ctmc.builders import repairable, triggered_repairable
from repro.ft.builder import FaultTreeBuilder

# A single profile: deterministic, moderate example counts, no deadline
# (CI machines with one core hit the default 200 ms deadline spuriously).
hypothesis.settings.register_profile(
    "repro",
    max_examples=60,
    deadline=None,
    derandomize=True,
)
hypothesis.settings.load_profile("repro")


@pytest.fixture(autouse=True)
def _isolated_cache_dir(tmp_path, monkeypatch):
    """Point the persistent solve cache at a per-test directory.

    The CLI enables the cache by default, so without this a test's
    analysis could be served from a record set another test (or an
    earlier suite run) stored under ``~/.cache/repro`` — hermetic tests
    must neither read nor pollute the user's real cache.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "solve-cache"))


@pytest.fixture
def cooling_tree():
    """The static cooling system of paper Example 1.

    MCSs: {e}, {a,c}, {a,d}, {b,c}, {b,d} (paper Example 7).
    """
    b = FaultTreeBuilder("cooling")
    b.event("a", 3e-3).event("b", 1e-3)
    b.event("c", 3e-3).event("d", 1e-3)
    b.event("e", 3e-6)
    b.or_("pump1", "a", "b").or_("pump2", "c", "d")
    b.and_("pumps", "pump1", "pump2")
    b.or_("cooling", "pumps", "e")
    return b.build("cooling")


@pytest.fixture
def cooling_sdft():
    """The SD cooling system of paper Example 3.

    Pump in-operation failures are dynamic (rates from Example 2); the
    spare pump's dynamic event ``d`` is triggered by the pump-1 gate.
    """
    b = SdFaultTreeBuilder("cooling-sd")
    b.static_event("a", 3e-3).static_event("c", 3e-3).static_event("e", 3e-6)
    b.dynamic_event("b", repairable(0.001, 0.05))
    b.dynamic_event("d", triggered_repairable(0.001, 0.05))
    b.or_("pump1", "a", "b").or_("pump2", "c", "d")
    b.and_("pumps", "pump1", "pump2")
    b.or_("cooling", "pumps", "e")
    b.trigger("pump1", "d")
    return b.build("cooling")


@pytest.fixture
def bwr_study():
    """The BWR study as the performance benchmark analyses it.

    All six trigger stages and repair rate 0.05 (``perfbench``'s base
    model); at horizon 24 h and cutoff 1e-15 it has 3981 cutsets and a
    cold analysis takes seconds, which makes it the scale at which the
    speedup floors and overhead budgets are asserted.
    """
    from repro.models.bwr import TRIGGER_STAGES, BwrConfig, build_bwr

    return build_bwr(BwrConfig(repair_rate=0.05, triggers=TRIGGER_STAGES))
