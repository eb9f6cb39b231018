"""Trajectory sampling of SD fault-tree semantics.

An independent implementation of the semantics of Section III-C, used to
cross-validate both the exact product chain and the per-cutset analysis:
instead of enumerating product states it samples trajectories —

1. sample the static events and the dynamic initial states, apply
   trigger updates;
2. repeatedly sample the exponential race among all enabled local
   transitions, advance the clock, apply the move and the trigger
   updates;
3. record whether the top gate failed before the horizon.

The state bookkeeping lives in :class:`TrajectoryKernel`, a lazily
tabulated view of the consistent product states a batch of trajectories
actually visits.  Every estimator of :mod:`repro.ctmc.rare` (crude
simulation, failure-biased importance sampling, fixed-effort splitting)
samples it, so all of them agree on the semantics — only the sampling
measure differs.

Simulation is a cross-check, never a served answer: the crude engine
backs ``sdft simulate`` and the examples, the ``auto`` controller backs
the ``verify="full"`` statistical check of
:mod:`repro.robust.crosscheck`.  A cutset the exact solvers cannot
handle is served the provable Section VIII interval instead (see
:mod:`repro.robust.ladder`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.ctmc.product import SdSemantics

__all__ = ["TrajectoryKernel"]


class TrajectoryKernel:
    """Lazily tabulated trajectory kernel over consistent product states.

    Interns every *consistent* product state a trajectory visits to an
    integer id and tabulates, per state, the exit rate and the enabled
    local moves (destination ids, rates, cumulative rates, and whether
    each move leaves a failed local state — a "repair-directed" move,
    the distinction the failure-biasing sampler of
    :mod:`repro.ctmc.rare` needs).  Nothing is enumerated up front:
    unlike :func:`repro.ctmc.product.build_product` the kernel only ever
    pays for states that are actually sampled, which is what keeps the
    estimators usable as cross-checks when the product space is too big
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
