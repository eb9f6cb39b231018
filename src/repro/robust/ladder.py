"""The per-cutset degradation ladder.

The paper's pipeline quantifies thousands of per-cutset chains
independently (Section V–VI) — which means a failure in one of them
should cost exactly one cutset's precision, never the whole run.  When
the exact solve of a cutset fails (oversized chain, numerical trouble,
budget pressure), the ladder retries that one cutset down a chain of
cheaper strategies, in order:

1. ``exact``       — full product chain + transient solve
   (:func:`repro.core.quantify.quantify_model`);
2. ``lumped``      — the same solve on the exactly-lumped chain
   (:mod:`repro.ctmc.lumping`) — smaller and often better conditioned;
3. ``monte_carlo`` — simulation of the cutset's ``FT_C`` through the
   rare-event controller (:mod:`repro.ctmc.rare`): crude sampling for
   common events, failure-biased importance sampling or importance
   splitting for PSA-scale probabilities, reported as a confidence
   interval; never builds the product state space;
4. ``bound``       — the conservative interval of
   :mod:`repro.core.bounds` (the paper's Section VIII approximation),
   one tiny single-chain solve per dynamic event.

Every descent is recorded so the health report can enumerate it, and
any rung below ``exact`` widens the reported value into an interval
(``bounded`` + ``lower_bound`` on the record) — a degraded answer is
visible, bracketed, and never silently exact-looking.
"""

from __future__ import annotations

import time
import zlib
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
from repro.robust import faults
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
    #: Rung-specific detail for the health report (e.g. which rare-event
    #: engine ran and the relative error it actually achieved).
    note: str = ""

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
    monte_carlo_runs: int = 4_000,
    monte_carlo_seed: int = 0,
    monte_carlo_target_rel_error: float = 0.10,
    monte_carlo_engine: str = "auto",
    obs: Observability | None = None,
    model: CutsetModel | None = None,
) -> LadderOutcome:
    """Quantify one cutset, degrading through the ladder on failure.

    Raises only when *every* rung fails (the analyzer then substitutes
    the cutset's static worst-case bound) or when model construction
    itself fails.  ``monte_carlo_seed`` is mixed with a stable hash of
    the cutset so fallback simulations are reproducible per cutset yet
    independent across cutsets; ``monte_carlo_engine`` and
    ``monte_carlo_target_rel_error`` select and tune the rare-event
    estimator of the simulation rung (``monte_carlo_runs`` caps its
    total trajectories).  ``obs`` optionally records the ``ladder.*``
    counters (descents, failed rungs, final rung) and is threaded into
    the exact solves for their spans.  ``model`` is the cutset's
    already-built ``FT_C``; ``None`` builds it here.
    """
    if model is None:
        model = build_cutset_model(sdft, cutset, classes)

    attempts: list[LadderAttempt] = []

    def _outcome(
        record: McsQuantification, rung: str, note: str = ""
    ) -> LadderOutcome:
        if obs is not None:
            metrics = obs.metrics
            metrics.count(f"ladder.rung.{rung}")
            if attempts:
                metrics.count("ladder.descents")
                metrics.count("ladder.attempts_failed", len(attempts))
        return LadderOutcome(record, rung, tuple(attempts), note)

    def _exact(lumped: bool) -> McsQuantification:
        return quantify_model(
            model,
            horizon,
            cache,
            epsilon,
            max_chain_states,
            on_oversize="raise",
            lump_chains=lumped,
            budget=budget,
            obs=obs,
        )

    # Rung 1: the solve as configured.
    first_rung = "lumped" if lump_chains else "exact"
    try:
        record = _exact(lump_chains)
        return _outcome(record, record.rung)
    except _RECOVERABLE as error:
        attempts.append(LadderAttempt(first_rung, str(error)))

    # Rung 2: retry on the exactly-lumped chain (skip if rung 1 already
    # lumped).  Helps with numerical trouble and state budgets; an
    # oversized product fails here too and falls through.
    if not lump_chains:
        try:
            record = _exact(True)
            return _outcome(record, "lumped")
        except _RECOVERABLE as error:
            attempts.append(LadderAttempt("lumped", str(error)))

    # Rung 3: Monte-Carlo on FT_C — no product state space at all.
    # Pointless once the wall clock is gone; the bound rung is cheaper.
    if not (budget is not None and budget.expired()):
        try:
            record, note = _monte_carlo(
                model,
                horizon,
                monte_carlo_runs,
                monte_carlo_seed,
                monte_carlo_target_rel_error,
                monte_carlo_engine,
                budget,
                obs,
            )
            return _outcome(record, "monte_carlo", note)
        except _RECOVERABLE as error:
            attempts.append(LadderAttempt("monte_carlo", str(error)))
    else:
        attempts.append(
            LadderAttempt("monte_carlo", "skipped: wall-clock budget exhausted")
        )

    # Rung 4: the conservative interval bound — tiny per-event solves.
    record = bound_record(model, horizon, epsilon)
    return _outcome(record, "bound")


def _monte_carlo(
    model: CutsetModel,
    horizon: float,
    n_runs: int,
    seed: int,
    target_rel_error: float,
    engine: str,
    budget: Budget | None,
    obs: Observability | None,
) -> tuple[McsQuantification, str]:
    """Simulate the cutset's ``FT_C`` and report a generous interval.

    Delegates to the adaptive rare-event controller — crude sampling
    for events common enough to tally directly, importance sampling or
    splitting at PSA probabilities — and reports the estimator's
    4-standard-error interval (the acceptance band of the simulator's
    own ``consistent_with`` cross-checks).  Returns the record plus a
    health-report note naming the engine used and the relative error it
    actually achieved.
    """
    faults.check("monte_carlo", cutset=model.cutset)
    if model.model is None or model.trivially_zero:
        # Static / infeasible cutsets never reach the ladder's lower
        # rungs in practice; quantify them exactly for completeness.
        return quantify_model(model, horizon), ""
    from repro.ctmc.rare import RareEventConfig, estimate_failure_probability

    mixed_seed = (seed + zlib.crc32("+".join(sorted(model.cutset)).encode())) % 2**32
    config = RareEventConfig(
        target_rel_error=target_rel_error, max_runs=n_runs, engine=engine
    )
    started = time.perf_counter()
    result = estimate_failure_probability(
        model.model,
        horizon,
        config,
        seed=mixed_seed,
        budget=budget,
        metrics=obs.metrics if obs is not None else None,
    )
    lower, upper = result.interval(sigmas=4.0)
    note = (
        f"engine={result.engine} runs={result.n_runs} "
        f"achieved_rel_error={result.achieved_rel_error:.3g} "
        f"target={result.target_rel_error:.3g}"
        + ("" if result.converged else " (budget hit before target)")
    )
    record = McsQuantification(
        model.cutset,
        upper * model.static_factor,
        True,
        model.n_dynamic_in_cutset,
        model.n_dynamic_in_model,
        model.n_added_dynamic,
        0,
        time.perf_counter() - started,
        bounded=True,
        lower_bound=lower * model.static_factor,
        rung="monte_carlo",
    )
    return record, note
