"""Cooperative resource budgets for long-running analyses.

A :class:`Budget` bounds what one analysis run may consume along three
axes — wall-clock time, total chain states solved, and completed
cutsets — and is checked *cooperatively*: the hot loops of MOCUS
(:mod:`repro.ft.mocus`), the transient solver
(:mod:`repro.ctmc.transient`) and the quantification loop
(:mod:`repro.core.analyzer`) poll it at safe interruption points.  When
a limit is hit the check raises
:class:`~repro.errors.BudgetExceededError`, which the pipeline converts
into a *partial result plus a conservative remainder bound* rather than
a crash (the behaviour production MCS engines exhibit under deadline
pressure).

The clock is injectable so tests can drive deadlines deterministically.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.errors import BudgetExceededError
from repro.obs.metrics import NULL_METRICS, MetricsRegistry, NullMetrics

__all__ = ["Budget", "UNLIMITED"]


class Budget:
    """Shared, mutable resource accounting for one analysis run.

    Parameters
    ----------
    wall_seconds:
        Wall-clock deadline measured from construction (``None`` =
        unlimited).
    max_total_states:
        Cumulative cap on chain states handed to the transient solver
        across the whole run (``None`` = unlimited).  Distinct from the
        *per-cutset* ``max_chain_states`` guard: this one bounds the
        total state-solving work of the run.
    max_cutsets:
        Cap on completed cutsets during MOCUS generation (``None`` =
        unlimited).  Unlike ``MocusOptions.max_cutsets`` — a hard error
        limit — exhausting this budget yields a truncated-but-usable
        cutset list.
    clock:
        Monotonic time source; injectable for deterministic tests.
    metrics:
        Optional :class:`repro.obs.metrics.MetricsRegistry`; every
        charge is mirrored into the ``budget.*`` counters so a traced
        run shows where its budget went.
    """

    def __init__(
        self,
        wall_seconds: float | None = None,
        max_total_states: int | None = None,
        max_cutsets: int | None = None,
        clock: Callable[[], float] = time.monotonic,
        metrics: MetricsRegistry | NullMetrics | None = None,
    ) -> None:
        if wall_seconds is not None and not wall_seconds >= 0.0:
            # ``not >=`` also rejects NaN, which would never expire.
            raise ValueError(f"wall_seconds must be non-negative, got {wall_seconds}")
        self.wall_seconds = wall_seconds
        self.max_total_states = max_total_states
        self.max_cutsets = max_cutsets
        self._clock = clock
        self._started = clock()
        self.states_charged = 0
        self.cutsets_charged = 0
        self.metrics = metrics if metrics is not None else NULL_METRICS

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def unlimited(self) -> bool:
        """Whether every axis is unconstrained (checks are no-ops)."""
        return (
            self.wall_seconds is None
            and self.max_total_states is None
            and self.max_cutsets is None
        )

    def elapsed_seconds(self) -> float:
        """Wall-clock seconds since the budget was created."""
        return self._clock() - self._started

    def remaining_seconds(self) -> float | None:
        """Seconds left before the deadline, or ``None`` if unlimited."""
        if self.wall_seconds is None:
            return None
        return self.wall_seconds - self.elapsed_seconds()

    def expired(self) -> bool:
        """Whether the wall-clock deadline has passed."""
        remaining = self.remaining_seconds()
        return remaining is not None and remaining <= 0.0

    # ------------------------------------------------------------------
    # Cooperative checks
    # ------------------------------------------------------------------

    def check_deadline(self, stage: str) -> None:
        """Raise :class:`BudgetExceededError` if the deadline passed."""
        if self.expired():
            raise BudgetExceededError(
                f"wall-clock budget of {self.wall_seconds:g}s exhausted "
                f"after {self.elapsed_seconds():.2f}s (stage: {stage})",
                stage=stage,
            )

    def charge_states(self, n_states: int, stage: str) -> None:
        """Account for a chain of ``n_states`` about to be solved."""
        self.states_charged += n_states
        self.metrics.count("budget.states_charged", n_states)
        if (
            self.max_total_states is not None
            and self.states_charged > self.max_total_states
        ):
            raise BudgetExceededError(
                f"state budget of {self.max_total_states} total chain states "
                f"exhausted at {self.states_charged} (stage: {stage})",
                stage=stage,
            )

    def charge_cutset(self, stage: str) -> None:
        """Account for one completed cutset."""
        self.cutsets_charged += 1
        self.metrics.count("budget.cutsets_charged")
        if self.max_cutsets is not None and self.cutsets_charged > self.max_cutsets:
            raise BudgetExceededError(
                f"cutset budget of {self.max_cutsets} exhausted "
                f"(stage: {stage})",
                stage=stage,
            )

    def __repr__(self) -> str:
        parts = []
        if self.wall_seconds is not None:
            parts.append(f"wall={self.wall_seconds:g}s")
        if self.max_total_states is not None:
            parts.append(f"states<={self.max_total_states}")
        if self.max_cutsets is not None:
            parts.append(f"cutsets<={self.max_cutsets}")
        return f"Budget({', '.join(parts) or 'unlimited'})"


#: A shared no-op budget for call sites that require one.
UNLIMITED = Budget()
