"""Stage-boundary invariant guards: the pipeline checks its own output.

The analysis trades one global product CTMC for thousands of small
per-cutset solves summed under the rare-event approximation — which
means a single silently-wrong solve (a NaN out of uniformization, a
poisoned cache entry, a pool task whose value was corrupted in flight)
would corrupt the final number without any error being raised.  This
module makes the wrongness *loud*: cheap mathematical invariants are
asserted at every stage boundary, and a failure raises
:class:`~repro.errors.InvariantViolation` instead of letting garbage
propagate.

The invariant catalogue (see ``docs/robustness.md``):

* **P1 — probabilities are probabilities**: every probability the
  pipeline produces is finite and within ``[0, 1]`` (up to a tiny
  floating-point tolerance).
* **P2 — distributions conserve mass**: a transient distribution is
  entrywise finite, non-negative and sums to ``1 ± tol``.  Not part of
  the modes below: the transient solver checks every distribution it
  returns, always (:func:`repro.ctmc.transient._checked_distribution`),
  and raises :class:`~repro.errors.NumericalError` so the degradation
  ladder applies.
* **P3 — intervals are ordered**: every reported interval satisfies
  ``lower <= estimate <= upper``.
* **P4 — worst-case dominance**: an exactly-quantified cutset's
  ``p̃(C)`` never exceeds its static worst-case value ``p̄(C)``
  (inequality (1) of the paper) — the check that catches a silently
  *inflated* solve.

Modes (``AnalysisOptions(verify=...)``, CLI ``--verify``):

* ``"off"``   — no checks (the default; zero overhead);
* ``"cheap"`` — the per-record and stage-boundary invariants above
  (pure-Python arithmetic, negligible next to any chain solve);
* ``"full"``  — additionally the differential cross-checks of
  :mod:`repro.robust.crosscheck`.

Verification **never changes a result** — a violation either raises or,
under fault isolation, routes the affected cutset through the existing
conservative degradation path with a health event saying so.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

from repro.errors import InvariantViolation

if TYPE_CHECKING:
    from repro.core.quantify import McsQuantification
    from repro.obs.metrics import MetricsRegistry, NullMetrics
    from repro.robust.health import HealthLog

__all__ = [
    "MODES",
    "Verifier",
    "check_interval",
    "check_probability",
    "resolve_mode",
]

#: Valid verification modes, in increasing order of thoroughness.
MODES = ("off", "cheap", "full")

#: Slack for pure floating-point comparisons (range and ordering).
DEFAULT_TOLERANCE = 1e-9


def resolve_mode(mode: str) -> str:
    """Validate a verify mode string (fail fast on typos)."""
    if mode not in MODES:
        raise ValueError(
            f"unknown verify mode {mode!r}; expected one of {MODES}"
        )
    return mode


def check_probability(
    value: float, what: str, tolerance: float = DEFAULT_TOLERANCE
) -> None:
    """Invariant P1: ``value`` is a finite probability in ``[0, 1]``."""
    if not math.isfinite(value):
        raise InvariantViolation(f"{what} is not finite: {value!r}")
    if value < -tolerance or value > 1.0 + tolerance:
        raise InvariantViolation(
            f"{what} is outside [0, 1]: {value!r}"
        )


def check_interval(
    lower: float,
    estimate: float,
    upper: float,
    what: str,
    tolerance: float = DEFAULT_TOLERANCE,
) -> None:
    """Invariant P3: ``lower <= estimate <= upper`` (with float slack).

    The slack scales with the magnitudes involved so intervals around
    sums of many cutsets are not failed for accumulated rounding.
    """
    for name, value in (("lower", lower), ("estimate", estimate), ("upper", upper)):
        if not math.isfinite(value):
            raise InvariantViolation(
                f"{what}: interval {name} is not finite: {value!r}"
            )
    slack = tolerance * max(1.0, abs(lower), abs(estimate), abs(upper))
    if lower > estimate + slack or estimate > upper + slack:
        raise InvariantViolation(
            f"{what}: interval out of order: "
            f"lower={lower!r} estimate={estimate!r} upper={upper!r}"
        )


class Verifier:
    """The per-run invariant checker the analyzer threads through.

    Holds the mode, the tolerance, and counters (``checks`` /
    ``violations``) that are mirrored into the run's metrics registry
    and summarised in the health report.  All ``check_*`` methods raise
    :class:`~repro.errors.InvariantViolation` on failure;
    :meth:`record_violation` is the non-raising variant the analyzer
    uses where a violation should degrade one cutset instead of
    aborting the run.
    """

    def __init__(
        self,
        mode: str = "off",
        health: "HealthLog | None" = None,
        metrics: "MetricsRegistry | NullMetrics | None" = None,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> None:
        self.mode = resolve_mode(mode)
        self.health = health
        self.metrics = metrics
        self.tolerance = tolerance
        self.checks = 0
        self.violations = 0

    @property
    def enabled(self) -> bool:
        """Whether any checking happens at all."""
        return self.mode != "off"

    @property
    def full(self) -> bool:
        """Whether the differential cross-checks run too."""
        return self.mode == "full"

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def _count(self, outcome_ok: bool) -> None:
        self.checks += 1
        if not outcome_ok:
            self.violations += 1
        if self.metrics is not None:
            self.metrics.count("verify.checks")
            if not outcome_ok:
                self.metrics.count("verify.violations")

    def _guard(self, check: Callable[[], None]) -> None:
        """Run one raising check with counter bookkeeping."""
        try:
            check()
        except InvariantViolation:
            self._count(False)
            raise
        self._count(True)

    # ------------------------------------------------------------------
    # Raising checks (stage boundaries)
    # ------------------------------------------------------------------

    def check_probability(self, value: float, what: str) -> None:
        """Raise unless ``value`` is a finite probability (P1)."""
        if not self.enabled:
            return
        self._guard(lambda: check_probability(value, what, self.tolerance))

    def check_value(self, value: float, what: str) -> None:
        """Raise unless ``value`` is finite and non-negative.

        For quantities that are sums of probabilities and may therefore
        legitimately exceed one (the rare-event sum, remainder bounds).
        """
        if not self.enabled:
            return

        def _check() -> None:
            if not math.isfinite(value):
                raise InvariantViolation(f"{what} is not finite: {value!r}")
            if value < -self.tolerance:
                raise InvariantViolation(f"{what} is negative: {value!r}")

        self._guard(_check)

    def check_interval(
        self, lower: float, estimate: float, upper: float, what: str
    ) -> None:
        """Raise unless ``lower <= estimate <= upper`` (P3)."""
        if not self.enabled:
            return
        self._guard(
            lambda: check_interval(lower, estimate, upper, what, self.tolerance)
        )

    # ------------------------------------------------------------------
    # Non-raising checks (the analyzer degrades / recovers instead)
    # ------------------------------------------------------------------

    def value_violation(self, value: float, what: str) -> str | None:
        """The P1 violation of a single probability value, or ``None``.

        The non-raising sibling of :meth:`check_probability`, used where
        the caller wants to recover (e.g. re-solve a corrupted pool
        result in the parent) instead of aborting.
        """
        if not self.enabled:
            return None
        try:
            check_probability(value, what, self.tolerance)
        except InvariantViolation as error:
            self._count(False)
            return str(error)
        self._count(True)
        return None

    def record_violation(
        self,
        record: "McsQuantification",
        worst_case: float | None = None,
    ) -> str | None:
        """The invariant one quantification record violates, or ``None``.

        Checks P1 on the value (and the lower bound when present), P3 on
        bounded records, and P4 — worst-case dominance — on records the
        exact rung produced.  P4 deliberately skips bounded records: a
        §VIII bound may legitimately sit above the sharp worst case, and
        it already carries its own bracket.
        """
        if not self.enabled:
            return None
        try:
            what = f"p̃({'+'.join(sorted(record.cutset))})"
            check_probability(record.probability, what, self.tolerance)
            if record.lower_bound is not None:
                check_probability(
                    record.lower_bound, f"{what} lower bound", self.tolerance
                )
                check_interval(
                    record.lower_bound,
                    record.probability,
                    record.probability,
                    what,
                    self.tolerance,
                )
            if (
                worst_case is not None
                and not record.bounded
                and record.rung == "exact"
            ):
                slack = self.tolerance * max(1.0, worst_case)
                if record.probability > worst_case + slack:
                    raise InvariantViolation(
                        f"{what} = {record.probability!r} exceeds its static "
                        f"worst-case bound {worst_case!r} (inequality (1))"
                    )
        except InvariantViolation as error:
            self._count(False)
            return str(error)
        self._count(True)
        return None

    def summary(self) -> str:
        """One line for the health report."""
        return (
            f"verify={self.mode}: {self.checks} checks, "
            f"{self.violations} violations"
        )
