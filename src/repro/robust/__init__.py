"""repro.robust — the resilience layer of the analysis pipeline.

Production-scale runs must survive what a research prototype may not:
an oversized per-cutset chain, a numerical failure deep in a solver, a
wall-clock deadline, a killed process.  This package provides the four
pieces the analyzer threads together:

* :mod:`repro.robust.budget` — cooperative wall-clock / state-count /
  cutset-count budgets raising a catchable
  :class:`~repro.errors.BudgetExceededError`;
* :mod:`repro.robust.ladder` — the per-cutset degradation ladder
  (full transient → conservative §VIII bound);
* :mod:`repro.robust.checkpoint` — periodic snapshots of MOCUS frontier
  state and quantified records, enabling kill/resume;
* :mod:`repro.robust.health` — the structured run-health report that
  makes every degradation visible on the result;
* :mod:`repro.robust.faults` — deterministic fault injection for tests
  and chaos campaigns (exception *and* silent-value faults);
* :mod:`repro.robust.verify` — stage-boundary invariant guards
  (``AnalysisOptions(verify="cheap"|"full")``);
* :mod:`repro.robust.crosscheck` — differential verification: key
  quantities re-derived through independent code paths (``full`` mode);
* :mod:`repro.robust.chaos` — the seeded fault-schedule campaign runner
  behind ``sdft chaos``.

``budget``, ``faults``, ``health`` and ``verify`` are dependency-free
of :mod:`repro.core` and imported eagerly; ``ladder``, ``checkpoint``,
``crosscheck`` and ``chaos`` build *on* the core and are re-exported
lazily to avoid import cycles.
"""

from __future__ import annotations

from typing import Any

from repro.robust import faults
from repro.robust.budget import Budget
from repro.robust.health import HealthEvent, HealthLog, HealthReport
from repro.robust.verify import Verifier

__all__ = [
    "Budget",
    "CampaignReport",
    "CheckpointManager",
    "HealthEvent",
    "HealthLog",
    "HealthReport",
    "LadderOutcome",
    "Verifier",
    "faults",
    "quantify_with_ladder",
    "run_campaign",
    "run_crosschecks",
]

#: Lazily-resolved exports living in modules that import repro.core.
_LAZY = {
    "quantify_with_ladder": "repro.robust.ladder",
    "LadderOutcome": "repro.robust.ladder",
    "CheckpointManager": "repro.robust.checkpoint",
    "run_crosschecks": "repro.robust.crosscheck",
    "run_campaign": "repro.robust.chaos",
    "CampaignReport": "repro.robust.chaos",
}


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
