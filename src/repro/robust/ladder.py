"""The per-cutset degradation ladder.

The paper's pipeline quantifies thousands of per-cutset chains
independently (Section V–VI) — which means a failure in one of them
should cost exactly one cutset's precision, never the whole run.  When
the exact solve of a cutset fails (oversized chain, numerical trouble),
the ladder answers that one cutset by a cheaper strategy:

1. ``exact``   — full product chain + transient solve
   (:func:`repro.core.quantify.quantify_model`);
2. ``bound``   — the conservative interval of
   :mod:`repro.core.bounds` (the paper's Section VIII approximation),
   one tiny single-chain solve per dynamic event.

An oversized chain (:class:`~repro.errors.ChainTooLargeError`) lands on
the bound rung after one failed attempt — the paper's interval
approximation for chains over ``max_chain_states``, served under
``fault_isolation``.  A run budget that trips
(:class:`~repro.errors.BudgetExceededError`) is not a rung failure: it
propagates, so the analyzer's one budget path skips the remaining
cutsets.

Every rung serves a provable answer: the exact rung an exact value, the
bound rung an interval that contains it.  Every descent is recorded so
the health report can enumerate it, and the bound rung widens the
reported value into an interval (``bounded`` + ``lower_bound`` on the
record) — a degraded answer is visible, bracketed, and never silently
exact-looking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.cutset_model import CutsetModel, build_cutset_model
from repro.core.quantify import (
    McsQuantification,
    QuantificationCache,
    bound_record,
    quantify_model,
)
from repro.core.sdft import SdFaultTree
from repro.errors import AnalysisError, BudgetExceededError, NumericalError
from repro.robust.budget import Budget

if TYPE_CHECKING:
    from repro.core.classify import TriggerClass
    from repro.obs.core import Observability

__all__ = ["LadderAttempt", "LadderOutcome", "quantify_with_ladder"]

#: Errors the exact rung may fail with that justify descending to the bound.
_RECOVERABLE = (NumericalError, AnalysisError)


@dataclass(frozen=True)
class LadderAttempt:
    """One failed rung: which strategy, and why it failed."""

    rung: str
    error: str


@dataclass(frozen=True)
class LadderOutcome:
    """The record that survived plus the descent that produced it."""

    record: McsQuantification
    rung: str
    attempts: tuple[LadderAttempt, ...] = ()

    @property
    def degraded(self) -> bool:
        """Whether the bound rung was needed."""
        return bool(self.attempts)


def quantify_with_ladder(
    sdft: SdFaultTree,
    cutset: frozenset[str],
    horizon: float,
    classes: dict[str, TriggerClass] | None = None,
    cache: QuantificationCache | None = None,
    epsilon: float = 1e-12,
    max_chain_states: int = 200_000,
    budget: Budget | None = None,
    obs: Observability | None = None,
    model: CutsetModel | None = None,
) -> LadderOutcome:
    """Quantify one cutset, degrading through the ladder on failure.

    Raises when both rungs fail (the analyzer then substitutes the
    cutset's static worst-case bound), when model construction itself
    fails, or when the run budget trips.  ``obs`` optionally records
    the ``ladder.*`` counters (descents, failed rungs, final rung) and
    is threaded into the exact solve for its spans.  ``model`` is the cutset's
    already-built ``FT_C``; ``None`` builds it here.
    """
    if model is None:
        model = build_cutset_model(sdft, cutset, classes)

    attempts: list[LadderAttempt] = []

    def _outcome(record: McsQuantification, rung: str) -> LadderOutcome:
        if obs is not None:
            metrics = obs.metrics
            metrics.count(f"ladder.rung.{rung}")
            if attempts:
                metrics.count("ladder.descents")
                metrics.count("ladder.attempts_failed", len(attempts))
        return LadderOutcome(record, rung, tuple(attempts))

    try:
        record = quantify_model(
            model,
            horizon,
            cache,
            epsilon,
            max_chain_states,
            budget=budget,
            obs=obs,
        )
        return _outcome(record, record.rung)
    except BudgetExceededError:
        raise
    except _RECOVERABLE as error:
        attempts.append(LadderAttempt("exact", str(error)))

    record = bound_record(model, horizon, epsilon)
    return _outcome(record, "bound")
