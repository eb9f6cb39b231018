"""Discrete-event Monte-Carlo simulation of SD fault-tree semantics.

An independent implementation of the semantics of Section III-C, used to
cross-validate both the exact product chain and the per-cutset analysis:
instead of enumerating product states it samples trajectories —

1. sample the static events and the dynamic initial states, apply
   trigger updates;
2. repeatedly sample the exponential race among all enabled local
   transitions, advance the clock, apply the move and the trigger
   updates;
3. record whether the top gate failed before the horizon.

The estimator of ``Pr[Reach^{<=t}(F)]`` is the fraction of failing runs,
reported with its standard error and a 95 % confidence interval.

The state bookkeeping lives in :class:`TrajectoryKernel`, a lazily
tabulated view of the consistent product states a batch of trajectories
actually visits.  The crude estimator here and the rare-event engines of
:mod:`repro.ctmc.rare` (failure-biased importance sampling, fixed-effort
splitting) share it, so all of them agree on the semantics — only the
sampling measure differs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ctmc.product import SdSemantics

__all__ = [
    "SimulationResult",
    "TrajectoryKernel",
    "simulate_failure_probability",
]

#: Rule-of-three numerator: with zero observed failures in ``n`` runs the
#: one-sided 95 % Clopper–Pearson upper bound is ``-ln(0.05)/n ~= 3/n``.
_RULE_OF_THREE = 3.0


@dataclass(frozen=True)
class SimulationResult:
    """A Monte-Carlo estimate with its sampling uncertainty."""

    estimate: float
    standard_error: float
    n_runs: int
    n_failures: int

    @property
    def confidence_interval(self) -> tuple[float, float]:
        """Normal-approximation 95 % confidence interval, clipped to [0, 1].

        Degenerate tallies never produce an empty interval: with zero
        observed failures the upper end is the rule-of-three bound
        ``3/n`` (the ~95 % Clopper–Pearson upper limit), and with zero
        observed survivals the lower end is its mirror ``1 - 3/n`` —
        the same ``1/n`` scale :meth:`consistent_with` already floors
        its acceptance band with.
        """
        if self.n_runs <= 0:
            return (0.0, 1.0)
        if self.n_failures == 0:
            return (0.0, min(1.0, _RULE_OF_THREE / self.n_runs))
        if self.n_failures == self.n_runs:
            return (max(0.0, 1.0 - _RULE_OF_THREE / self.n_runs), 1.0)
        delta = 1.96 * self.standard_error
        return (max(0.0, self.estimate - delta), min(1.0, self.estimate + delta))

    def consistent_with(self, value: float, sigmas: float = 4.0) -> bool:
        """Whether ``value`` lies within ``sigmas`` standard errors.

        A loose acceptance band used by the cross-validation tests; with
        few failures the normal approximation is rough, so the default
        band is generous.
        """
        slack = sigmas * max(self.standard_error, 1.0 / self.n_runs)
        return abs(value - self.estimate) <= slack


class TrajectoryKernel:
    """Lazily tabulated trajectory kernel over consistent product states.

    Interns every *consistent* product state a trajectory visits to an
    integer id and tabulates, per state, the exit rate and the enabled
    local moves (destination ids, rates, cumulative rates, and whether
    each move leaves a failed local state — a "repair-directed" move,
    the distinction the failure-biasing sampler of
    :mod:`repro.ctmc.rare` needs).  Nothing is enumerated up front:
    unlike :func:`repro.ctmc.product.build_product` the kernel only ever
    pays for states that are actually sampled, which is what makes the
    simulation rungs usable exactly when the product space is too big
    to build.  States are the coded tuples of
    :class:`~repro.ctmc.product.SdSemantics`, whose moves and trigger
    updates the kernel shares with the product construction.
    """

    def __init__(self, sdft) -> None:
        self.sdft = sdft
        self.semantics = semantics = SdSemantics(sdft)
        order = semantics.order
        static = [n for n in order if sdft.is_static(n)]
        self._static_slots = [semantics.position[n] for n in static]
        self._static_p = np.array([sdft.static_events[n].probability for n in static])
        self._dynamic_slots: list[int] = []
        self._dynamic_initial: list[tuple[list[int], np.ndarray]] = []
        for name in order:
            if not sdft.is_dynamic(name):
                continue
            slot = semantics.position[name]
            items = sorted(
                sdft.chain_of(name).initial.items(), key=lambda x: str(x[0])
            )
            codes = [semantics.codes[slot][local] for local, _ in items]
            weights = np.array([p for _, p in items], dtype=float)
            self._dynamic_slots.append(slot)
            self._dynamic_initial.append((codes, np.cumsum(weights)))
        # Interning tables, grown lazily as trajectories discover states.
        # ``_ids`` also maps raw (not yet updated) initial draws.
        self._ids: dict[tuple, int] = {}
        self._states: list[tuple] = []
        self._masks: list[int] = []
        self._fails: list[bool] = []
        self._exit_rates: list[float] = []
        # Per-state move table: (dest ids, rates, cumulative rates,
        # repair-directed flags); None for absorbing states.
        self._moves: list[
            tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None
        ] = []

    # ------------------------------------------------------------------
    # State interning
    # ------------------------------------------------------------------

    def _intern(self, state: tuple, mask: int) -> int:
        """The id of a consistent coded state, tabulating on first visit."""
        sid = self._ids.get(state)
        if sid is None:
            sid = len(self._states)
            self._ids[state] = sid
            self._states.append(state)
            self._masks.append(mask)
            self._fails.append(self.semantics.fails(mask))
            self._exit_rates.append(-1.0)  # move table built on demand
            self._moves.append(None)
        return sid

    def _intern_raw(self, raw_state: tuple) -> int:
        """The id of the update of a raw coded state (cached per raw state)."""
        found = self._ids.get(raw_state)
        if found is not None:
            return found
        state = list(raw_state)
        mask = self.semantics.settle(state, self.semantics.failed_mask(state))
        sid = self._intern(tuple(state), mask)
        self._ids[raw_state] = sid
        return sid

    def state(self, sid: int) -> tuple:
        """The product-state tuple (labels) behind an id."""
        return self.semantics.decode(self._states[sid])

    def fails(self, sid: int) -> bool:
        """Whether the state fails the top gate."""
        return self._fails[sid]

    def failed_count(self, sid: int) -> int:
        """How many basic events are in a failed local state.

        The level function of the importance-splitting engine: failures
        accumulate towards the top event, so the count is a cheap
        monotone proxy for "how close to the top failure" a state is.
        """
        return self._masks[sid].bit_count()

    # ------------------------------------------------------------------
    # Move tables
    # ------------------------------------------------------------------

    def exit_rate(self, sid: int) -> float:
        """Total rate out of the state (0.0 for absorbing states)."""
        rate = self._exit_rates[sid]
        if rate < 0.0:
            rate = self._build_moves(sid)
        return rate

    def moves(
        self, sid: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """``(dest ids, rates, cumulative rates, repair flags)`` or ``None``.

        ``None`` marks an absorbing state — no enabled moves, or every
        enabled move rated zero (possible in principle after trigger
        updates); the race has no winner and the trajectory just sits
        out the rest of the horizon.
        """
        if self._exit_rates[sid] < 0.0:
            self._build_moves(sid)
        return self._moves[sid]

    def _build_moves(self, sid: int) -> float:
        semantics = self.semantics
        state = self._states[sid]
        successors = semantics.successors(state, self._masks[sid])
        total = math.fsum(move[4] for move in successors)
        if not successors or total <= 0.0:
            # Absorbing: treat an all-zero race like no race at all
            # instead of dividing by the zero total rate.
            self._exit_rates[sid] = 0.0
            self._moves[sid] = None
            return 0.0
        dests = np.empty(len(successors), dtype=np.int64)
        rates = np.empty(len(successors), dtype=float)
        repair = np.empty(len(successors), dtype=bool)
        failed_bits = semantics.failed_bits
        for k, (_, i, target, target_mask, rate) in enumerate(successors):
            dests[k] = self._intern(target, target_mask)
            rates[k] = rate
            # A move out of a failed local state undoes failure progress;
            # everything else (first failures, phase advances, switch-ons)
            # is failure-directed for the biasing sampler.
            repair[k] = failed_bits[i][state[i]] != 0
        self._exit_rates[sid] = total
        self._moves[sid] = (dests, rates, np.cumsum(rates), repair)
        return total

    # ------------------------------------------------------------------
    # Initial sampling
    # ------------------------------------------------------------------

    def sample_initial_ids(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Ids of ``n`` sampled (consistent) initial states.

        Static coin flips and dynamic initial draws are vectorised over
        the batch; the per-trajectory tuple assembly hits the interning
        cache, so repeated draws of the same raw combination cost one
        dict lookup.
        """
        static_draws = (
            rng.random((n, len(self._static_slots))) < self._static_p
            if self._static_slots
            else None
        )
        dynamic_draws = (
            rng.random((n, len(self._dynamic_slots)))
            if self._dynamic_slots
            else None
        )
        ids = np.empty(n, dtype=np.int64)
        template = [0] * len(self.semantics.order)
        for i in range(n):
            raw = list(template)
            for j, slot in enumerate(self._static_slots):
                raw[slot] = 1 if static_draws[i, j] else 0  # type: ignore[index]
            for j, slot in enumerate(self._dynamic_slots):
                codes, cum = self._dynamic_initial[j]
                if len(codes) == 1:
                    raw[slot] = codes[0]
                else:
                    pick = int(
                        np.searchsorted(cum, dynamic_draws[i, j] * cum[-1])  # type: ignore[index]
                    )
                    raw[slot] = codes[min(pick, len(codes) - 1)]
            ids[i] = self._intern_raw(tuple(raw))
        return ids


def simulate_failure_probability(
    sdft,
    horizon: float,
    n_runs: int = 10_000,
    seed: int | None = None,
) -> SimulationResult:
    """Estimate ``Pr[Reach^{<=t}(F)]`` of an SD fault tree by simulation.

    Runs are independent; a run stops at its first top-gate failure (the
    reachability event) or at the horizon.  Time per run is linear in
    the number of transitions that fire, so long horizons with fast
    repair cycles cost more.
    """
    if horizon < 0.0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    rng = np.random.default_rng(seed)
    kernel = TrajectoryKernel(sdft)
    n_failures = 0
    for start in range(0, n_runs, 4096):
        batch = min(4096, n_runs - start)
        sids = kernel.sample_initial_ids(batch, rng)
        for i in range(batch):
            if _run_one(kernel, int(sids[i]), horizon, rng):
                n_failures += 1
    estimate = n_failures / n_runs
    standard_error = math.sqrt(max(estimate * (1.0 - estimate), 0.0) / n_runs)
    return SimulationResult(estimate, standard_error, n_runs, n_failures)


def _run_one(
    kernel: TrajectoryKernel,
    sid: int,
    horizon: float,
    rng: np.random.Generator,
) -> bool:
    """One crude trajectory: did the top fail before the horizon?"""
    if kernel.fails(sid):
        return True
    clock = 0.0
    while True:
        total_rate = kernel.exit_rate(sid)
        if total_rate <= 0.0:
            return False  # absorbing — sits out the rest of the horizon
        clock += rng.exponential(1.0 / total_rate)
        if clock > horizon:
            return False
        moves = kernel.moves(sid)
        assert moves is not None
        dests, _, cum, _ = moves
        choice = rng.random() * total_rate
        pick = int(np.searchsorted(cum, choice, side="right"))
        sid = int(dests[min(pick, len(dests) - 1)])
        if kernel.fails(sid):
            return True
