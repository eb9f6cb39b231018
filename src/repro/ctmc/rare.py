"""Monte-Carlo estimation of SD fault-tree failure probabilities.

Every estimator here samples trajectories on the shared
:class:`~repro.ctmc.simulate.TrajectoryKernel`, so all of them agree on
the semantics of Section III-C; only the sampling measure differs.

* **Crude simulation** (``engine="crude"``): runs from the initial
  distribution until the top gate fails or the horizon passes; the
  estimate is the failing fraction.  Correct and cheapest for common
  events, and what ``sdft simulate`` and the examples run.  At PSA
  probabilities (p <= 1e-6) it is useless: thousands of runs observe
  zero failures and report a degenerate estimate.

The two standard remedies for rare CTMC reachability follow Porotsky,
"Rare-Event Estimation for Dynamic Fault Trees":

* **Failure-biased importance sampling with forcing** (``engine="is"``):
  every holding time of the local-transition race is *forced* — sampled
  from the exponential conditioned on landing before the horizon — and
  the discrete choice of which transition fires is *biased* towards
  failure-directed moves.  Each distortion multiplies a per-trajectory
  likelihood ratio, so ``mean(W · 1{fail})`` is an unbiased estimator of
  ``Pr[Reach^{<=t}(F)]`` with a valid sample variance (the proposal
  dominates the true law on the failure event; see docs/theory.md).
  Trajectories whose weight decays below a floor (or that exceed the
  step cap) are retired *unresolved*: their contribution lies in
  ``[0, W]``, so the retired mass widens only the upper end of the
  reported interval — honest, never silently dropped.

* **Fixed-effort importance splitting** (``engine="splitting"``): a
  sequential-Monte-Carlo estimator over the level function "number of
  failed basic events".  Each stage advances a fixed effort of
  particles (with the forced/biased dynamics above) until they cross
  the next level or the horizon, extracts the stage factor
  ``mean(W · 1{crossed})``, and multinomially resamples the survivors.
  The product of stage factors is unbiased; the whole ladder is
  replicated independently for a valid variance.

An adaptive controller (``engine="auto"``) picks the estimator from a
crude pilot batch — common events stay on cheap crude batches, rare
ones go to importance sampling, and splitting takes over when biasing
alone stalls (zero weighted failures after the stall window).  Every
engine iterates in batches until the 95 % relative half-width reaches
:data:`TARGET_REL_ERROR` or the ``max_runs`` budget is exhausted — and
always reports the precision actually achieved, not the one requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.ctmc.simulate import TrajectoryKernel
from repro.ctmc.transient import check_horizon
from repro.obs.metrics import NULL_METRICS
from repro.robust import faults

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry, NullMetrics

__all__ = [
    "ENGINES",
    "RareEventResult",
    "estimate_failure_probability",
]

#: Estimator names accepted by :func:`estimate_failure_probability`.
ENGINES = ("auto", "crude", "is", "splitting")

#: Requested 95 % relative half-width (``1.96·SE/estimate``).
TARGET_REL_ERROR = 0.10

#: Trajectories per crude or importance-sampling batch.
BATCH_SIZE = 1_000

#: Size of the crude pilot batch of ``engine="auto"``.
PILOT_RUNS = 256

#: Pilot failures at or above which ``auto`` stays on crude batches.
PILOT_MIN_FAILURES = 16

#: Probability mass the importance sampler moves onto failure-directed
#: transitions when both directions are enabled.
BIAS = 0.7

#: Forced trajectories whose weight decays below this are retired as
#: unresolved mass (widening the interval's upper end).
WEIGHT_FLOOR = 1e-30

#: Step cap per trajectory; capped trajectories are retired unresolved.
MAX_STEPS = 512

#: Consecutive zero-failure IS batches after which ``auto`` splits.
IS_STALL_BATCHES = 2

#: Particles per splitting stage.
SPLITTING_EFFORT = 256

#: Independent splitting replications (the variance comes from these).
SPLITTING_REPLICATIONS = 10

#: 95 % normal quantile used for the reported relative half-width.
_Z95 = 1.96

#: Rule-of-three numerator: with zero observed failures in ``n`` runs the
#: one-sided 95 % Clopper–Pearson upper bound is ``-ln(0.05)/n ~= 3/n``.
_RULE_OF_THREE = 3.0

#: Outcome codes of one advanced trajectory.
_SUCCESS, _SURVIVED, _UNRESOLVED = 1, 2, 3


@dataclass(frozen=True)
class RareEventResult:
    """A rare-event estimate with its honest achieved precision.

    ``achieved_rel_error`` is the realised 95 % relative half-width
    (``inf`` when nothing was observed); ``converged`` says whether the
    target was met before the run budget ran out.  ``unresolved_mass``
    is the per-run mean weight of retired (floor/step-capped)
    trajectories — an upper-end widening, never a hidden loss.
    """

    estimate: float
    standard_error: float
    n_runs: int
    n_failures: int
    engine: str
    achieved_rel_error: float
    converged: bool
    unresolved_mass: float = 0.0
    pilot_failures: int = 0

    def interval(self, sigmas: float = 4.0) -> tuple[float, float]:
        """A bracketing interval that is never empty.

        Crude tallies keep the generous ``sigmas · max(SE, 1/n)`` band
        (a zero-variance crude tally still gets width); the weighted
        engines use their own (much tighter, still valid) standard
        error.  Zero observed failures fall back to the rule-of-three
        upper bound; non-finite estimates propagate so the invariant
        guards see them.
        """
        if not math.isfinite(self.estimate):
            return (self.estimate, self.estimate)
        if self.n_failures == 0:
            upper = _RULE_OF_THREE / max(self.n_runs, 1) + self.unresolved_mass
            return (0.0, min(1.0, upper))
        if self.engine == "crude":
            slack = sigmas * max(self.standard_error, 1.0 / self.n_runs)
        else:
            slack = sigmas * self.standard_error
            if slack <= 0.0:
                # A degenerate batch (all weights identical): pad with
                # the scale of one run so the interval has width.
                slack = self.estimate / math.sqrt(self.n_runs)
        lower = max(0.0, self.estimate - slack)
        upper = min(1.0, self.estimate + slack + self.unresolved_mass)
        return (lower, upper)


@dataclass
class _Tally:
    """Streaming first/second moments of per-run contributions."""

    n: int = 0
    total: float = 0.0
    total_sq: float = 0.0
    failures: int = 0
    unresolved: float = 0.0

    def add(self, values: np.ndarray, failures: int, unresolved: float) -> None:
        self.n += int(values.size)
        self.total += float(values.sum())
        self.total_sq += float(np.square(values).sum())
        self.failures += failures
        self.unresolved += unresolved

    @property
    def estimate(self) -> float:
        return self.total / self.n if self.n else 0.0

    @property
    def standard_error(self) -> float:
        if self.n < 2:
            return 0.0
        mean = self.estimate
        variance = max(self.total_sq - self.n * mean * mean, 0.0) / (self.n - 1)
        return math.sqrt(variance / self.n)

    @property
    def rel_error(self) -> float:
        if self.n == 0 or self.estimate <= 0.0 or not math.isfinite(self.estimate):
            return math.inf
        return _Z95 * self.standard_error / self.estimate


class _BiasTables:
    """Per-state failure/repair partitions of the move tables, cached."""

    def __init__(self, kernel: TrajectoryKernel) -> None:
        self.kernel = kernel
        self._cache: dict[int, tuple] = {}

    def get(self, sid: int) -> tuple:
        found = self._cache.get(sid)
        if found is None:
            moves = self.kernel.moves(sid)
            assert moves is not None
            dests, rates, cum, repair = moves
            fail_rates = rates[~repair]
            rep_rates = rates[repair]
            found = (
                dests,
                cum,
                dests[~repair],
                np.cumsum(fail_rates),
                dests[repair],
                np.cumsum(rep_rates),
            )
            self._cache[sid] = found
        return found


def _pick(dests: np.ndarray, cum: np.ndarray, draw: float) -> int:
    """The destination chosen by ``draw`` in ``[0, cum[-1])``."""
    index = int(np.searchsorted(cum, draw * float(cum[-1]), side="right"))
    return int(dests[min(index, len(dests) - 1)])


def _advance_batch(
    kernel: TrajectoryKernel,
    tables: _BiasTables | None,
    sids: np.ndarray,
    clocks: np.ndarray,
    weights: np.ndarray,
    horizon: float,
    rng: np.random.Generator,
    success: Callable[[int], bool],
) -> np.ndarray:
    """Advance every trajectory until success, survival or retirement.

    With ``tables`` set the dynamics are forced (holding times
    conditioned below the horizon) and failure-biased, and ``weights``
    accumulate the likelihood ratio; with ``tables=None`` the dynamics
    are crude and the weights stay untouched.  ``sids``, ``clocks`` and
    ``weights`` are updated in place; the returned array holds one
    outcome code per trajectory.
    """
    n = len(sids)
    outcomes = np.zeros(n, dtype=np.int8)
    for i in range(n):
        if success(int(sids[i])):
            outcomes[i] = _SUCCESS
    active = [i for i in range(n) if outcomes[i] == 0]
    for _step in range(MAX_STEPS):
        if not active:
            break
        count = len(active)
        lam = np.fromiter(
            (kernel.exit_rate(int(sids[i])) for i in active),
            dtype=float,
            count=count,
        )
        remaining = horizon - clocks[active]
        u_time = rng.random(count)
        u_choice = rng.random(count)
        u_group = rng.random(count) if tables is not None else None
        still: list[int] = []
        for k, i in enumerate(active):
            rate = float(lam[k])
            left = float(remaining[k])
            if rate <= 0.0 or left <= 0.0:
                outcomes[i] = _SURVIVED
                continue
            sid = int(sids[i])
            if tables is None:
                tau = -math.log(max(float(u_time[k]), 1e-300)) / rate
                if tau > left:
                    outcomes[i] = _SURVIVED
                    continue
                clocks[i] += tau
                moves = kernel.moves(sid)
                assert moves is not None
                sid = _pick(moves[0], moves[2], float(u_choice[k]))
            else:
                forcing = -math.expm1(-rate * left)
                if forcing <= 0.0:
                    outcomes[i] = _SURVIVED
                    continue
                tau = -math.log1p(-float(u_time[k]) * forcing) / rate
                clocks[i] += min(tau, left)
                weights[i] *= forcing
                dests, cum, fail_dests, fail_cum, rep_dests, rep_cum = tables.get(
                    sid
                )
                has_fail = len(fail_dests) > 0
                has_rep = len(rep_dests) > 0
                assert u_group is not None
                if has_fail and has_rep:
                    if float(u_group[k]) < BIAS:
                        sid = _pick(fail_dests, fail_cum, float(u_choice[k]))
                        weights[i] *= float(fail_cum[-1]) / (BIAS * rate)
                    else:
                        sid = _pick(rep_dests, rep_cum, float(u_choice[k]))
                        weights[i] *= float(rep_cum[-1]) / ((1.0 - BIAS) * rate)
                else:
                    # Only one direction enabled: the true race already
                    # points where we want — no distortion, ratio 1.
                    sid = _pick(dests, cum, float(u_choice[k]))
            sids[i] = sid
            if success(sid):
                outcomes[i] = _SUCCESS
            elif weights[i] < WEIGHT_FLOOR:
                outcomes[i] = _UNRESOLVED
            else:
                still.append(i)
        active = still
    for i in active:  # step cap hit: retire honestly, never guess
        outcomes[i] = _UNRESOLVED
    return outcomes


def _run_batch(
    kernel: TrajectoryKernel,
    tables: _BiasTables | None,
    n: int,
    horizon: float,
    rng: np.random.Generator,
    tally: _Tally,
) -> None:
    """One independent batch from the initial distribution into ``tally``."""
    sids = kernel.sample_initial_ids(n, rng)
    clocks = np.zeros(n)
    weights = np.ones(n)
    outcomes = _advance_batch(
        kernel, tables, sids, clocks, weights, horizon, rng, kernel.fails
    )
    values = np.where(outcomes == _SUCCESS, weights, 0.0)
    values = faults.corrupt("rare_event_weights", values)
    unresolved = float(weights[outcomes == _UNRESOLVED].sum())
    tally.add(values, int((outcomes == _SUCCESS).sum()), unresolved)


# ----------------------------------------------------------------------
# Fixed-effort importance splitting (sequential Monte Carlo)
# ----------------------------------------------------------------------


@dataclass
class _Replication:
    estimate: float
    runs: int
    failures: int
    unresolved: float


def _stage_goal(
    kernel: TrajectoryKernel, level: int | None
) -> Callable[[int], bool]:
    """The success predicate of one splitting stage.

    ``None`` is the final stage (the top failure itself); an integer
    level accepts any state with that many failed basic events — or the
    top failure outright, which may arrive before the count does on
    trees with static voting.
    """
    if level is None:
        return kernel.fails

    def goal(sid: int) -> bool:
        return bool(kernel.fails(sid)) or int(kernel.failed_count(sid)) >= level

    return goal


def _splitting_replication(
    kernel: TrajectoryKernel,
    tables: _BiasTables,
    horizon: float,
    rng: np.random.Generator,
    max_level: int,
) -> _Replication:
    """One independent fixed-effort pass up the level ladder.

    Stage ``k`` advances the particle population until it reaches
    level ``k`` (``failed_count >= k``) or fails the top outright; the
    stage factor is the weighted crossing fraction and survivors are
    multinomially resampled to fixed effort.  A final stage demands the
    top failure itself.  ``E[product of factors] = p`` stage by stage
    (tower property over the resampled populations).
    """
    effort = SPLITTING_EFFORT
    sids = kernel.sample_initial_ids(effort, rng)
    clocks = np.zeros(effort)
    done = np.array([kernel.fails(int(s)) for s in sids])
    product = 1.0
    runs = 0
    failures = int(done.sum())
    unresolved_total = 0.0
    # Integer levels 1..max, then the final top-failure-only stage.
    levels: list[int | None] = [*range(1, max_level + 1), None]
    for level in levels:
        open_idx = np.flatnonzero(~done)
        weights = np.ones(effort)
        crossed = done.copy()
        if len(open_idx):
            runs += len(open_idx)
            sub_sids = sids[open_idx].copy()
            sub_clocks = clocks[open_idx].copy()
            sub_weights = np.ones(len(open_idx))
            outcomes = _advance_batch(
                kernel,
                tables,
                sub_sids,
                sub_clocks,
                sub_weights,
                horizon,
                rng,
                _stage_goal(kernel, level),
            )
            sids[open_idx] = sub_sids
            clocks[open_idx] = sub_clocks
            weights[open_idx] = sub_weights
            crossed[open_idx] = outcomes == _SUCCESS
            unresolved_total += (
                product
                * float(sub_weights[outcomes == _UNRESOLVED].sum())
                / effort
            )
            newly_done = open_idx[
                (outcomes == _SUCCESS)
                & np.array([kernel.fails(int(s)) for s in sub_sids])
            ]
            done[newly_done] = True
            failures += len(newly_done)
        values = np.where(crossed, weights, 0.0)
        factor = float(values.sum()) / effort
        if factor <= 0.0:
            return _Replication(0.0, runs, failures, unresolved_total)
        product *= factor
        # Multinomial resampling to fixed effort; extracted factor keeps
        # the product unbiased with reset weights.
        picks = rng.choice(effort, size=effort, p=values / values.sum())
        sids = sids[picks].copy()
        clocks = clocks[picks].copy()
        done = done[picks].copy()
    return _Replication(product, runs, failures, unresolved_total)


def _run_splitting(
    kernel: TrajectoryKernel,
    tables: _BiasTables,
    horizon: float,
    rng: np.random.Generator,
    max_runs: int,
    runs_used: int,
) -> tuple[list[_Replication], int]:
    """Independent splitting replications under the run budget."""
    max_level = len(kernel.semantics.order)
    replications: list[_Replication] = []
    for _ in range(SPLITTING_REPLICATIONS):
        if runs_used >= max_runs and replications:
            break
        replication = _splitting_replication(kernel, tables, horizon, rng, max_level)
        runs_used += replication.runs
        replications.append(replication)
    return replications, runs_used


# ----------------------------------------------------------------------
# The adaptive controller
# ----------------------------------------------------------------------


def estimate_failure_probability(
    sdft: object,
    horizon: float,
    *,
    engine: str = "auto",
    max_runs: int = 20_000,
    seed: int | None = None,
    metrics: "MetricsRegistry | NullMetrics | None" = None,
) -> RareEventResult:
    """Estimate ``Pr[Reach^{<=t}(F)]`` with one of :data:`ENGINES`.

    Deterministic in ``seed``: the same seed yields bit-identical
    results regardless of how the caller parallelised *other* work.
    Stops at :data:`TARGET_REL_ERROR` or at ``max_runs`` total
    trajectories (pilot, batches and splitting stages) — whichever comes
    first — and reports the precision actually achieved in the result.
    Raises :class:`ValueError` for an unknown engine, a non-positive
    ``max_runs`` or a horizon that is not finite and >= 0.
    """
    check_horizon(horizon)
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if max_runs < 1:
        raise ValueError(f"max_runs must be >= 1, got {max_runs}")
    requested = engine
    rng = np.random.default_rng(seed)
    kernel = TrajectoryKernel(sdft)
    meter = metrics or NULL_METRICS
    tally = _Tally()
    pilot_failures = 0

    # Pilot: a crude batch decides whether the event is rare at all.
    if engine == "auto":
        pilot = _Tally()
        _run_batch(kernel, None, PILOT_RUNS, horizon, rng, pilot)
        meter.count("mc.pilot_runs", PILOT_RUNS)
        pilot_failures = pilot.failures
        if pilot.failures >= PILOT_MIN_FAILURES:
            engine = "crude"
            tally = pilot  # the pilot sample is part of the crude stream
        else:
            engine = "is"

    if engine in ("crude", "is"):
        tables = _BiasTables(kernel) if engine == "is" else None
        stalled = 0
        while tally.n < max_runs:
            if tally.rel_error <= TARGET_REL_ERROR:
                break
            batch = min(BATCH_SIZE, max_runs - tally.n)
            _run_batch(kernel, tables, batch, horizon, rng, tally)
            meter.count("mc.batches")
            if engine == "is" and requested == "auto":
                stalled = stalled + 1 if tally.failures == 0 else 0
                if stalled >= IS_STALL_BATCHES:
                    engine = "splitting"  # biasing alone stalls: split
                    break

    if engine == "splitting":
        tables = _BiasTables(kernel)
        replications, runs_used = _run_splitting(
            kernel, tables, horizon, rng, max_runs, tally.n
        )
        if replications:
            estimates = np.array([r.estimate for r in replications])
            tally = _Tally()
            tally.add(
                faults.corrupt("rare_event_weights", estimates),
                sum(r.failures for r in replications),
                float(np.mean([r.unresolved for r in replications]))
                * len(replications),
            )
            meter.count("mc.splitting_replications", len(replications))
        runs = runs_used
    else:
        runs = tally.n

    estimate = faults.corrupt("rare_event_estimate", tally.estimate)
    achieved = tally.rel_error
    unresolved = tally.unresolved / tally.n if tally.n else 0.0
    meter.count("mc.runs", runs)
    meter.count(f"mc.engine.{engine}")
    if math.isfinite(achieved):
        meter.observe("mc.achieved_rel_error", achieved)
    return RareEventResult(
        estimate=estimate,
        standard_error=tally.standard_error,
        n_runs=runs,
        n_failures=tally.failures,
        engine=engine,
        achieved_rel_error=achieved,
        converged=achieved <= TARGET_REL_ERROR,
        unresolved_mass=unresolved,
        pilot_failures=pilot_failures,
    )
