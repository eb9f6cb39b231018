"""The per-cutset degradation ladder.

The paper's pipeline quantifies thousands of per-cutset chains
independently (Section V–VI) — which means a failure in one of them
should cost exactly one cutset's precision, never the whole run.  When
the exact solve of a cutset fails (oversized chain, numerical trouble,
budget pressure), the ladder retries that one cutset down a chain of
cheaper strategies, in order:

1. ``exact``   — full product chain + transient solve
   (:func:`repro.core.quantify.quantify_model`);
2. ``lumped``  — the same solve on the exactly-lumped chain
   (:mod:`repro.ctmc.lumping`) — smaller and often better conditioned;
3. ``bound``   — the conservative interval of
   :mod:`repro.core.bounds` (the paper's Section VIII approximation),
   one tiny single-chain solve per dynamic event.

An oversized chain (:class:`~repro.errors.ChainTooLargeError`) skips
the lumped rung: lumping reduces a *built* chain, and this one cannot
be built under the same cap.  It lands on the bound rung after one
failed attempt — the paper's interval approximation for chains over
``max_chain_states``, served under ``fault_isolation``.

Every rung serves a provable answer: the two solver rungs an exact
value, the bound rung an interval that contains it.  Every descent is
recorded so the health report can enumerate it, and the bound rung
widens the reported value into an interval (``bounded`` +
``lower_bound`` on the record) — a degraded answer is visible,
bracketed, and never silently exact-looking.
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
from repro.errors import AnalysisError, ChainTooLargeError, NumericalError
from repro.robust.budget import Budget

if TYPE_CHECKING:
    from repro.core.classify import TriggerClass
    from repro.obs.core import Observability

__all__ = ["LadderAttempt", "LadderOutcome", "quantify_with_ladder"]

#: Errors a rung may fail with that justify descending to the next one.
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
        """Whether any rung below the first was needed."""
        return bool(self.attempts)


def quantify_with_ladder(
    sdft: SdFaultTree,
    cutset: frozenset[str],
    horizon: float,
    classes: dict[str, TriggerClass] | None = None,
    cache: QuantificationCache | None = None,
    epsilon: float = 1e-12,
    max_chain_states: int = 200_000,
    lump_chains: bool = False,
    budget: Budget | None = None,
    obs: Observability | None = None,
    model: CutsetModel | None = None,
) -> LadderOutcome:
    """Quantify one cutset, degrading through the ladder on failure.

    Raises only when *every* rung fails (the analyzer then substitutes
    the cutset's static worst-case bound) or when model construction
    itself fails.  ``obs`` optionally records the ``ladder.*``
    counters (descents, failed rungs, final rung) and is threaded into
    the exact solves for their spans.  ``model`` is the cutset's
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

    def _exact(lumped: bool) -> McsQuantification:
        return quantify_model(
            model,
            horizon,
            cache,
            epsilon,
            max_chain_states,
            lump_chains=lumped,
            budget=budget,
            obs=obs,
        )

    # Rung 1: the solve as configured.
    first_rung = "lumped" if lump_chains else "exact"
    oversized = False
    try:
        record = _exact(lump_chains)
        return _outcome(record, record.rung)
    except _RECOVERABLE as error:
        attempts.append(LadderAttempt(first_rung, str(error)))
        oversized = isinstance(error, ChainTooLargeError)

    # Rung 2: retry on the exactly-lumped chain (skip if rung 1 already
    # lumped, or could not build the chain lumping would reduce).
    # Helps with numerical trouble and state budgets.
    if not (lump_chains or oversized):
        try:
            record = _exact(True)
            return _outcome(record, "lumped")
        except _RECOVERABLE as error:
            attempts.append(LadderAttempt("lumped", str(error)))

    # Rung 3: the conservative interval bound — tiny per-event solves.
    record = bound_record(model, horizon, epsilon)
    return _outcome(record, "bound")

