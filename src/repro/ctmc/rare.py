"""Rare-event Monte-Carlo estimation of SD fault-tree failure probabilities.

At PSA probabilities (p <= 1e-6) crude simulation is useless: thousands
of runs observe zero failures and report a degenerate estimate.  This
module implements the two standard remedies for CTMC reachability
(Porotsky, "Rare-Event Estimation for Dynamic Fault Trees"), both on the
shared :class:`~repro.ctmc.simulate.TrajectoryKernel` so they sample
exactly the semantics of Section III-C:

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
alone stalls (zero weighted failures after the stall window).  The
controller iterates in batches until the target relative half-width
``target_rel_error`` is met or the run budget is exhausted — and always
reports the precision actually achieved, not the one requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.ctmc.simulate import TrajectoryKernel
from repro.errors import NumericalError
from repro.robust import faults

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry, NullMetrics

__all__ = [
    "RareEventConfig",
    "RareEventResult",
    "estimate_failure_probability",
]

#: 95 % normal quantile used for the reported relative half-width.
_Z95 = 1.96

#: Rule-of-three numerator for zero-failure upper bounds.
_RULE_OF_THREE = 3.0

#: Outcome codes of one advanced trajectory.
_SUCCESS, _SURVIVED, _UNRESOLVED = 1, 2, 3


@dataclass(frozen=True)
class RareEventConfig:
    """Knobs of the rare-event controller.

    ``engine`` is ``"auto"`` (pilot-batch selection), ``"crude"``,
    ``"is"`` or ``"splitting"``.  ``target_rel_error`` is the requested
    95 % relative half-width (``1.96·SE/estimate``); ``max_runs`` caps
    the total trajectories across pilot, batches and splitting stages.
    ``bias`` is the probability mass the importance sampler moves onto
    failure-directed transitions when both directions are enabled.
    ``weight_floor`` and ``max_steps`` bound forced trajectories that
    neither fail nor exit (their retired weight is reported as
    unresolved mass, widening the interval's upper end).
    """

    target_rel_error: float = 0.10
    max_runs: int = 20_000
    engine: str = "auto"
    batch_size: int = 1_000
    pilot_runs: int = 256
    pilot_min_failures: int = 16
    bias: float = 0.7
    weight_floor: float = 1e-30
    max_steps: int = 512
    is_stall_batches: int = 2
    splitting_effort: int = 256
    splitting_replications: int = 10

    def __post_init__(self) -> None:
        if self.engine not in ("auto", "crude", "is", "splitting"):
            raise ValueError(
                f"engine must be auto|crude|is|splitting, got {self.engine!r}"
            )
        if not 0.0 < self.target_rel_error:
            raise ValueError(
                f"target_rel_error must be positive, got {self.target_rel_error}"
            )
        if not 0.0 < self.bias < 1.0:
            raise ValueError(f"bias must be in (0, 1), got {self.bias}")
        if self.max_runs < 1:
            raise ValueError(f"max_runs must be >= 1, got {self.max_runs}")


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
    target_rel_error: float
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
    config: RareEventConfig,
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
    bias = config.bias
    for _step in range(config.max_steps):
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
                    if float(u_group[k]) < bias:
                        sid = _pick(fail_dests, fail_cum, float(u_choice[k]))
                        weights[i] *= float(fail_cum[-1]) / (bias * rate)
                    else:
                        sid = _pick(rep_dests, rep_cum, float(u_choice[k]))
                        weights[i] *= float(rep_cum[-1]) / ((1.0 - bias) * rate)
                else:
                    # Only one direction enabled: the true race already
                    # points where we want — no distortion, ratio 1.
                    sid = _pick(dests, cum, float(u_choice[k]))
            sids[i] = sid
            if success(sid):
                outcomes[i] = _SUCCESS
            elif weights[i] < config.weight_floor:
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
    config: RareEventConfig,
    tally: _Tally,
) -> None:
    """One independent batch from the initial distribution into ``tally``."""
    sids = kernel.sample_initial_ids(n, rng)
    clocks = np.zeros(n)
    weights = np.ones(n)
    outcomes = _advance_batch(
        kernel, tables, sids, clocks, weights, horizon, rng, kernel.fails, config
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
    config: RareEventConfig,
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
    effort = config.splitting_effort
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
                config,
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
    config: RareEventConfig,
    runs_used: int,
) -> tuple[list[_Replication], int]:
    """Independent splitting replications under the run budget."""
    max_level = len(kernel.semantics.order)
    replications: list[_Replication] = []
    for _ in range(config.splitting_replications):
        if runs_used >= config.max_runs and replications:
            break
        replication = _splitting_replication(
            kernel, tables, horizon, rng, config, max_level
        )
        runs_used += replication.runs
        replications.append(replication)
    return replications, runs_used


# ----------------------------------------------------------------------
# The adaptive controller
# ----------------------------------------------------------------------


@dataclass
class _Metered:
    """The optional metrics sink, null-safe."""

    registry: "MetricsRegistry | NullMetrics | None" = None

    def count(self, name: str, n: float = 1) -> None:
        if self.registry is not None:
            self.registry.count(name, n)

    def observe(self, name: str, value: float) -> None:
        if self.registry is not None and math.isfinite(value):
            self.registry.observe(name, value)


def estimate_failure_probability(
    sdft: object,
    horizon: float,
    config: RareEventConfig | None = None,
    seed: int | None = None,
    metrics: "MetricsRegistry | NullMetrics | None" = None,
) -> RareEventResult:
    """Estimate ``Pr[Reach^{<=t}(F)]``, adaptively handling rare events.

    Deterministic in ``seed``: the same seed yields bit-identical
    results regardless of how the caller parallelised *other* work.
    Stops at ``config.target_rel_error`` or at ``config.max_runs`` —
    whichever comes first — and reports the precision actually achieved
    in the result.  Raises
    :class:`~repro.errors.NumericalError` only when the model cannot be
    simulated at all.
    """
    if horizon < 0.0:
        raise NumericalError(f"horizon must be non-negative, got {horizon}")
    cfg = config if config is not None else RareEventConfig()
    rng = np.random.default_rng(seed)
    kernel = TrajectoryKernel(sdft)
    meter = _Metered(metrics)
    engine = cfg.engine
    tally = _Tally()
    pilot_failures = 0

    # Pilot: a crude batch decides whether the event is rare at all.
    if engine == "auto":
        pilot = _Tally()
        _run_batch(kernel, None, cfg.pilot_runs, horizon, rng, cfg, pilot)
        meter.count("mc.pilot_runs", cfg.pilot_runs)
        pilot_failures = pilot.failures
        if pilot.failures >= cfg.pilot_min_failures:
            engine = "crude"
            tally = pilot  # the pilot sample is part of the crude stream
        else:
            engine = "is"

    if engine in ("crude", "is"):
        tables = _BiasTables(kernel) if engine == "is" else None
        stalled = 0
        while tally.n < cfg.max_runs:
            if tally.rel_error <= cfg.target_rel_error:
                break
            batch = min(cfg.batch_size, cfg.max_runs - tally.n)
            _run_batch(kernel, tables, batch, horizon, rng, cfg, tally)
            meter.count("mc.batches")
            if engine == "is" and cfg.engine == "auto":
                stalled = stalled + 1 if tally.failures == 0 else 0
                if stalled >= cfg.is_stall_batches:
                    engine = "splitting"  # biasing alone stalls: split
                    break

    if engine == "splitting":
        tables = _BiasTables(kernel)
        replications, runs_used = _run_splitting(
            kernel, tables, horizon, rng, cfg, tally.n
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
    meter.observe("mc.achieved_rel_error", achieved)
    return RareEventResult(
        estimate=estimate,
        standard_error=tally.standard_error,
        n_runs=runs,
        n_failures=tally.failures,
        engine=engine,
        target_rel_error=cfg.target_rel_error,
        achieved_rel_error=achieved,
        converged=achieved <= cfg.target_rel_error,
        unresolved_mass=unresolved,
        pilot_failures=pilot_failures,
    )
