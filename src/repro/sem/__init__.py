"""Whole-model semantic analysis: facts the shape rules cannot see.

The lint rules of :mod:`repro.lint` (SD1xx–SD4xx) judge a model by its
*shape* — reachability, probability ranges, trigger wiring.  This
package judges it by its *meaning*:

* :mod:`repro.sem.triggers` — the trigger dependency graph, and the
  order-sensitive races the builder's acyclicity check cannot rule out;
* :mod:`repro.sem.logic` — BDD-verified logical diagnostics: constant
  gates, vacuous operands, absorbed events, coherence verification;
* :mod:`repro.sem.bounds` — interval abstract interpretation bounding
  the top-event probability *without solving anything*, exact where
  independence is provable and Fréchet-bounded where it is not;
* :mod:`repro.sem.rewrite` — the equivalence-checked model diet: a
  rewrite engine whose every pass is verified by BDD equivalence on the
  touched scopes before it is accepted.

Surfaced as the SD5xx lint family and the ``sdft simplify`` subcommand.
The diet is a model transformation, not an analysis option: analyse
the smaller equivalent model with ``analyze(simplify(model).model)``.
"""

from repro.sem.bounds import BoundsReport, Interval, interval_bounds
from repro.sem.logic import LogicReport, VacuousOperand, logical_diagnostics
from repro.sem.rewrite import Rewrite, SimplifyResult, simplify
from repro.sem.triggers import TriggerRace, TriggerReport, analyze_triggers

__all__ = [
    "BoundsReport",
    "Interval",
    "LogicReport",
    "Rewrite",
    "SimplifyResult",
    "TriggerRace",
    "TriggerReport",
    "VacuousOperand",
    "analyze_triggers",
    "interval_bounds",
    "logical_diagnostics",
    "simplify",
]
