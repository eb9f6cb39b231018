"""Result containers of the end-to-end SD fault-tree analysis.

Everything the paper's experiment tables and figures are built from:
the overall failure frequency, per-cutset records with chain sizes and
solve times, the phase timing breakdown, and the histogram of dynamic
events per cutset (Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.classify import ClassificationReport
from repro.core.quantify import McsQuantification
from repro.robust.health import HealthReport

__all__ = ["METHODS", "PerfStats", "Timings", "AnalysisResult", "served_interval"]

#: Valid ``AnalysisResult.method`` labels — every served number carries
#: its error model: ``"bdd-exact"`` (exact Shannon-expansion value from
#: the BDD static engine), ``"mcs-rare-event"`` (first-order sum over
#: quantified cutsets, a provable over-approximation), or
#: ``"mcs-min-cut-ub"`` (the min-cut upper bound, served when the
#: rare-event sum overshoots 1.0).
METHODS = ("bdd-exact", "mcs-rare-event", "mcs-min-cut-ub")


def served_interval(
    records: "tuple[McsQuantification, ...] | list[McsQuantification]",
    total: float,
    method: str,
    cutoff: float,
    remainder: float,
) -> tuple[float, float]:
    """``(lower, upper)`` bracket for a served total, by its method.

    The one definition shared by
    :meth:`AnalysisResult.failure_probability_interval` and the
    analyzer's final P3 guard, so the pipeline verifies exactly the
    bracket it later reports:

    * ``bdd-exact`` — the value is exact; the interval is degenerate
      (cutset records approximate the same number from above, so the
      record sum does *not* bound it from below);
    * ``mcs-rare-event`` — record lower bounds to record values plus the
      MOCUS remainder, as before;
    * ``mcs-min-cut-ub`` — the record sum overshot 1.0, so the sum-based
      lower end is meaningless; the floor becomes the largest single
      record contribution (sound for coherent trees) and the ceiling is
      capped at 1.0.
    """
    if method == "bdd-exact":
        return (total, total)
    lower = 0.0
    upper = 0.0
    largest_single = 0.0
    for record in records:
        if record.probability > cutoff:
            upper += record.probability
            if record.bounded and record.lower_bound is not None:
                contribution = record.lower_bound
            else:
                contribution = record.probability
            lower += contribution
            largest_single = max(largest_single, contribution)
    if method == "mcs-min-cut-ub":
        return (largest_single, min(1.0, total + remainder))
    return (lower, upper + remainder)


@dataclass(frozen=True)
class PerfStats:
    """Execution statistics of the quantification phase.

    The dedup numbers answer "how much solving did signature sharing
    save": ``dynamic_solves`` counts cutsets that needed a chain value,
    of which only ``unique_models_solved`` distinct models were actually
    solved; ``dedup_ratio`` is the avoided fraction.  They are derived
    from the shared solve cache, so serial and parallel runs of the same
    analysis report identical dedup numbers.

    ``jobs`` and ``worker_faults`` describe *how* the run executed:
    worker count of the solver farm (1 = in-process serial loop) and how
    many pool tasks failed in a worker and were recovered by re-running
    their cutsets in the parent.  They never influence the analysis
    values themselves.
    """

    jobs: int = 1
    dynamic_solves: int = 0
    unique_models_solved: int = 0
    dedup_ratio: float = 0.0
    worker_faults: int = 0

    def summary(self) -> str:
        """One human-readable line for the run report."""
        line = (
            f"dedup: {self.unique_models_solved} unique chain models solved "
            f"for {self.dynamic_solves} dynamic solves "
            f"({self.dedup_ratio:.0%} shared), jobs={self.jobs}"
        )
        if self.worker_faults:
            line += f", {self.worker_faults} worker faults recovered"
        return line


@dataclass(frozen=True)
class Timings:
    """Wall-clock seconds of the three pipeline phases."""

    translation_seconds: float
    mcs_generation_seconds: float
    quantification_seconds: float

    @property
    def total_seconds(self) -> float:
        """Total analysis time (all three phases)."""
        return (
            self.translation_seconds
            + self.mcs_generation_seconds
            + self.quantification_seconds
        )


@dataclass(frozen=True)
class AnalysisResult:
    """Outcome of one SD fault-tree analysis.

    ``failure_probability`` is the served top-event probability and
    ``method`` labels its error model (:data:`METHODS`): exact for
    static trees quantified by the BDD engine, the rare-event sum over
    quantified cutsets otherwise, or the min-cut upper bound when that
    sum overshoots 1.0.  ``rare_event_sum`` always carries the raw
    record sum so the classical bracket (sum >= exact) stays auditable.
    ``static_bound`` is the sound aggregation of the cutset list under
    the worst-case static probabilities (what the translation alone
    would report — always an upper bound on ``failure_probability``).

    ``health`` enumerates every recovery action of the run
    (degradations, retries, budget hits — :mod:`repro.robust.health`);
    a degraded run is never silently indistinguishable from a clean
    one.  ``mcs_truncated`` marks a budget-shortened cutset list and
    ``mcs_remainder_bound`` conservatively bounds the un-enumerated
    probability mass, which widens the reported interval's upper end.
    """

    failure_probability: float
    static_bound: float
    horizon: float
    cutoff: float
    records: tuple[McsQuantification, ...]
    timings: Timings
    classification: ClassificationReport
    cache_hits: int = 0
    cache_misses: int = 0
    health: HealthReport = HealthReport()
    mcs_truncated: bool = False
    mcs_remainder_bound: float = 0.0
    perf: PerfStats = PerfStats()
    #: Metrics snapshot of the run (``repro.obs``), present only when
    #: the analysis collected metrics; never influences the values above.
    metrics: "dict | None" = None
    #: Error model of :attr:`failure_probability` (:data:`METHODS`).
    method: str = "mcs-rare-event"
    #: Raw rare-event sum over the served records — equals
    #: :attr:`failure_probability` under ``mcs-rare-event``, brackets it
    #: from above under the other two methods.
    rare_event_sum: float | None = None
    #: Total BDD nodes across all compilation scopes (``bdd-exact`` only).
    bdd_nodes: int = 0
    #: Ordering heuristic the BDD top scope compiled under.
    bdd_ordering: str = ""
    #: Module scopes the BDD compilation decomposed into.
    bdd_modules: int = 0

    # ------------------------------------------------------------------
    # Aggregated views used by the experiment harnesses
    # ------------------------------------------------------------------

    @property
    def n_cutsets(self) -> int:
        """Number of quantified minimal cutsets."""
        return len(self.records)

    @property
    def n_dynamic_cutsets(self) -> int:
        """Cutsets containing at least one dynamic event (need a chain solve)."""
        return sum(1 for r in self.records if r.is_dynamic)

    @property
    def n_bounded_cutsets(self) -> int:
        """Cutsets quantified by the interval fallback (oversized chains)."""
        return sum(1 for r in self.records if r.bounded)

    @property
    def n_degraded_cutsets(self) -> int:
        """Cutsets answered below the exact rung of the ladder."""
        return sum(1 for r in self.records if r.rung in ("bound", "skipped"))

    @property
    def is_degraded(self) -> bool:
        """Whether any part of the result is not the clean exact answer."""
        return (
            self.mcs_truncated
            or self.n_degraded_cutsets > 0
            or not self.health.is_clean
        )

    def failure_probability_interval(self) -> tuple[float, float]:
        """``(lower, upper)`` bounds of the served failure probability.

        Method-aware (see :func:`served_interval`): degenerate for
        ``bdd-exact`` values, record-sum based for ``mcs-rare-event``
        (bounded cutsets contribute their interval ends, a truncated
        cutset list widens the upper end by the remainder bound), and
        largest-single-cutset to capped-MCUB for ``mcs-min-cut-ub``.
        """
        return served_interval(
            self.records,
            self.failure_probability,
            self.method,
            self.cutoff,
            self.mcs_remainder_bound,
        )

    def fussell_vesely(self) -> dict[str, float]:
        """Time-aware Fussell–Vesely importance per basic event.

        The fraction of the quantified rare-event sum flowing through
        cutsets containing each event — the dynamic counterpart of the
        static FV measure, computed from the already-quantified list at
        no extra solving cost (the cheap re-evaluation the paper's
        concluding remark highlights).
        """
        total = self.failure_probability
        if total <= 0.0:
            return {}
        mass: dict[str, float] = {}
        for record in self.records:
            if record.probability <= self.cutoff:
                continue
            for name in record.cutset:
                mass[name] = mass.get(name, 0.0) + record.probability
        return {name: value / total for name, value in sorted(mass.items())}

    def dynamic_event_histogram(self) -> dict[int, int]:
        """Figure 2's histogram: cutset count by dynamic events *in the model*.

        Only dynamic cutsets appear; the key is the number of dynamic
        events in the cutset's ``FT_C`` (cutset events plus added ones).
        """
        histogram: dict[int, int] = {}
        for record in self.records:
            if not record.is_dynamic:
                continue
            key = record.n_dynamic_in_model
            histogram[key] = histogram.get(key, 0) + 1
        return dict(sorted(histogram.items()))

    def mean_dynamic_events(self) -> tuple[float, float]:
        """Average dynamic events per dynamic cutset: ``(total, added)``.

        The two statistics the paper quotes for the BWR study ("the
        average number of dynamic events is 3.02 out of which 1.78 are
        added because the triggering gates do not have static
        branching").
        """
        dynamic_records = [r for r in self.records if r.is_dynamic]
        if not dynamic_records:
            return (0.0, 0.0)
        total = sum(r.n_dynamic_in_model for r in dynamic_records)
        added = sum(r.n_added_dynamic for r in dynamic_records)
        return (total / len(dynamic_records), added / len(dynamic_records))

    def top_contributors(self, n: int = 10) -> list[McsQuantification]:
        """The ``n`` cutsets with the highest quantified probability."""
        return sorted(self.records, key=lambda r: -r.probability)[:n]

    def summary(self) -> str:
        """A short human-readable report."""
        mean_total, mean_added = self.mean_dynamic_events()
        label = f"failure probability ({self.method}):"
        lines = [
            f"{label:<34}{self.failure_probability:.3e}",
            f"{'static worst-case bound:':<34}{self.static_bound:.3e}",
            f"horizon: {self.horizon} h, cutoff: {self.cutoff:.0e}",
            f"cutsets: {self.n_cutsets} total, "
            f"{self.n_dynamic_cutsets} dynamic",
            f"dynamic events per dynamic cutset: {mean_total:.2f} "
            f"(of which {mean_added:.2f} added by trigger modelling)",
            f"chain-solve cache: {self.cache_hits} hits / "
            f"{self.cache_misses} misses",
            self.perf.summary(),
            f"time: translation {self.timings.translation_seconds:.2f}s, "
            f"MCS {self.timings.mcs_generation_seconds:.2f}s, "
            f"quantification {self.timings.quantification_seconds:.2f}s",
        ]
        raw_sum = (
            self.rare_event_sum
            if self.rare_event_sum is not None
            else self.failure_probability
        )
        if self.method == "bdd-exact":
            lines.append(
                f"static engine: exact BDD ({self.bdd_nodes} nodes, "
                f"order {self.bdd_ordering}, {self.bdd_modules} modules); "
                f"rare-event sum {raw_sum:.3e}"
            )
        elif self.method == "mcs-min-cut-ub":
            lines.append(
                f"estimator: min-cut upper bound served (rare-event sum "
                f"{raw_sum:.3e} overshoots 1.0)"
            )
        if self.mcs_truncated:
            lines.append(
                f"cutset list TRUNCATED by budget; un-enumerated mass "
                f"<= {self.mcs_remainder_bound:.3e}"
            )
        if self.is_degraded:
            lower, upper = self.failure_probability_interval()
            lines.append(
                f"DEGRADED result: {self.n_degraded_cutsets} cutsets on "
                f"fallback rungs; true value in [{lower:.3e}, {upper:.3e}]"
            )
            lines.append(self.health.summary())
        if self.metrics is not None:
            from repro.obs.report import metric_highlights

            highlights = metric_highlights(self.metrics)
            if highlights:
                lines.append("metrics:")
                lines.extend(f"  {line}" for line in highlights)
        return "\n".join(lines)
