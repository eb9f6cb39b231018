"""Continuous-time Markov chains over finite, labelled state spaces.

A CTMC is specified by an initial distribution, a rate matrix and a set
of failed states (paper, Section III-A).  States are arbitrary hashable
labels — tuples like ``("on", 2)`` for phase models, or product tuples
for the semantics of whole SD fault trees — and are mapped to dense
indices internally.

The class is immutable after construction; analyses live in
:mod:`repro.ctmc.transient`.
"""

from __future__ import annotations

import hashlib
import math
from typing import Hashable, Iterable, Mapping

import numpy as np
from scipy import sparse

from repro.errors import InvalidProbabilityError, InvalidRateError, ModelError

__all__ = ["Ctmc"]

State = Hashable


class Ctmc:
    """A finite continuous-time Markov chain.

    Parameters
    ----------
    states:
        All states, in a fixed order (determines internal indices).
    initial:
        Mapping from state to initial probability; omitted states get
        probability zero.  Entries must be finite and non-negative
        (a NaN would otherwise slip past the sum check and be dropped)
        and sum to one (within ``1e-9``).
    rates:
        Mapping ``(source, destination) -> rate`` with finite,
        non-negative rates (zero rates are dropped; negative, infinite
        and NaN rates raise :class:`~repro.errors.InvalidRateError`);
        self-loops are meaningless in a CTMC and rejected.
    failed:
        The failed states ``F``.
    """

    def __init__(
        self,
        states: Iterable[State],
        initial: Mapping[State, float],
        rates: Mapping[tuple[State, State], float],
        failed: Iterable[State],
    ) -> None:
        self.states: tuple[State, ...] = tuple(states)
        self.index: dict[State, int] = {s: i for i, s in enumerate(self.states)}
        if len(self.index) != len(self.states):
            raise ModelError("duplicate states in CTMC")
        if not self.states:
            raise ModelError("CTMC needs at least one state")

        for state, probability in initial.items():
            if state not in self.index:
                raise ModelError(f"initial distribution mentions unknown state {state!r}")
            if not 0.0 <= probability < math.inf:
                raise InvalidProbabilityError(
                    f"initial probability {probability!r} for state {state!r} "
                    f"is not a finite non-negative number"
                )
        total = float(sum(initial.values()))
        if abs(total - 1.0) > 1e-9:
            raise InvalidProbabilityError(
                f"initial distribution sums to {total}, expected 1"
            )
        self.initial: dict[State, float] = {
            s: float(p) for s, p in initial.items() if p > 0.0
        }

        # Row and column index of every kept rate, in ``self.rates``
        # order: the matrix forms read them instead of re-hashing labels.
        self._rate_rows: list[int] = []
        self._rate_cols: list[int] = []
        plain = type(rates) is dict
        for (source, destination), rate in rates.items():
            i = self.index.get(source)
            j = self.index.get(destination)
            if i is None or j is None:
                raise ModelError(
                    f"rate references unknown state: {source!r} -> {destination!r}"
                )
            if i == j:
                raise InvalidRateError(f"self-loop rate on state {source!r}")
            if not 0.0 <= rate < math.inf:
                raise InvalidRateError(
                    f"rate {rate!r} on {source!r} -> {destination!r} is not "
                    f"a finite non-negative number"
                )
            if rate > 0.0:
                self._rate_rows.append(i)
                self._rate_cols.append(j)
                plain = plain and type(rate) is float
            else:
                plain = False
        # A dict of positive floats is copied as is, keeping its keys'
        # stored hashes; anything else is filtered and converted.
        self.rates: dict[tuple[State, State], float] = (
            dict(rates)
            if plain
            else {(s, d): float(r) for (s, d), r in rates.items() if r > 0.0}
        )

        self.failed: frozenset[State] = frozenset(failed)
        for state in self.failed:
            if state not in self.index:
                raise ModelError(f"failed set mentions unknown state {state!r}")

    # ------------------------------------------------------------------
    # Size and views
    # ------------------------------------------------------------------

    @property
    def n_states(self) -> int:
        """Number of states."""
        return len(self.states)

    @property
    def n_transitions(self) -> int:
        """Number of positive-rate transitions."""
        return len(self.rates)

    def exit_rate(self, state: State) -> float:
        """Total outgoing rate of ``state``."""
        return sum(r for (s, _), r in self.rates.items() if s == state)

    def successors(self, state: State) -> list[tuple[State, float]]:
        """Outgoing transitions of ``state`` as ``(destination, rate)``."""
        return [
            (destination, rate)
            for (source, destination), rate in self.rates.items()
            if source == state
        ]

    def __repr__(self) -> str:
        return (
            f"Ctmc({self.n_states} states, {self.n_transitions} transitions, "
            f"{len(self.failed)} failed)"
        )

    # ------------------------------------------------------------------
    # Structural identity
    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """A content-based digest identifying the labelled chain.

        Two chains built independently from the same states, rates,
        initial distribution and failed set — and, for triggered chains,
        the same on/off structure — share the fingerprint; any
        analysis-relevant difference changes it.  This is what
        quantification caches and the dedup layer key on: unlike object
        identity it survives pickling across processes and recognises
        equal-but-distinct chain objects.

        The digest is cached on the instance (the chain is immutable
        after construction).
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        digest = hashlib.sha256(
            "\n".join(self._fingerprint_parts()).encode()
        ).hexdigest()
        self.__dict__["_fingerprint"] = digest
        return digest

    def _fingerprint_parts(self) -> list[str]:
        """Canonical lines the fingerprint digests; subclasses extend.

        State labels enter via ``repr`` and every collection is sorted,
        so the digest is independent of construction order.  Floats use
        ``repr`` too, which round-trips exactly in Python 3.
        """
        return [
            type(self).__name__,
            "states:" + "|".join(sorted(repr(s) for s in self.states)),
            "initial:"
            + "|".join(
                sorted(f"{s!r}={p!r}" for s, p in self.initial.items())
            ),
            "rates:"
            + "|".join(
                sorted(
                    f"{s!r}>{d!r}={r!r}" for (s, d), r in self.rates.items()
                )
            ),
            "failed:" + "|".join(sorted(repr(s) for s in self.failed)),
        ]

    # ------------------------------------------------------------------
    # Matrix forms
    # ------------------------------------------------------------------

    def initial_vector(self) -> np.ndarray:
        """Initial distribution as a dense row vector."""
        nu = np.zeros(self.n_states)
        for state, probability in self.initial.items():
            nu[self.index[state]] = probability
        return nu

    def failed_mask(self) -> np.ndarray:
        """Boolean vector marking the failed states."""
        mask = np.zeros(self.n_states, dtype=bool)
        for state in self.failed:
            mask[self.index[state]] = True
        return mask

    def rate_matrix(self) -> sparse.csr_matrix:
        """The rate matrix ``R`` (no diagonal) as a sparse CSR matrix."""
        n, count = self.n_states, len(self.rates)
        if not count:
            return sparse.csr_matrix((n, n))
        rows = np.fromiter(self._rate_rows, dtype=np.intp, count=count)
        cols = np.fromiter(self._rate_cols, dtype=np.intp, count=count)
        values = np.fromiter(self.rates.values(), dtype=float, count=count)
        return sparse.csr_matrix((values, (rows, cols)), shape=(n, n))

    def generator_matrix(self) -> sparse.csr_matrix:
        """The infinitesimal generator ``Q = R - diag(exit rates)``."""
        rate_matrix = self.rate_matrix().tolil()
        exit_rates = np.asarray(rate_matrix.sum(axis=1)).ravel()
        for i, rate in enumerate(exit_rates):
            rate_matrix[i, i] = -rate
        return rate_matrix.tocsr()

    # ------------------------------------------------------------------
    # Derived chains
    # ------------------------------------------------------------------

    def with_absorbing(self, absorbing: Iterable[State]) -> "Ctmc":
        """Copy of this chain with all transitions out of ``absorbing`` removed.

        The standard reduction of time-bounded reachability to transient
        analysis: make the targets absorbing, then the probability mass
        sitting on them at time ``t`` equals ``Pr[Reach^{<=t}]``.
        """
        blocked = set()
        for state in frozenset(absorbing):
            if state not in self.index:
                raise ModelError(f"unknown state {state!r}")
            blocked.add(self.index[state])
        # Copy, then delete: only the (few) removed keys are re-hashed,
        # and the survivors keep their order.
        rates = dict(self.rates)
        for key, row in zip(self.rates, self._rate_rows):
            if row in blocked:
                del rates[key]
        return Ctmc(self.states, self.initial, rates, self.failed)

    def with_initial(self, initial: Mapping[State, float]) -> "Ctmc":
        """Copy of this chain with a different initial distribution."""
        return Ctmc(self.states, initial, self.rates, self.failed)

    def relabel(self, mapping: Mapping[State, State]) -> "Ctmc":
        """Copy with states renamed through ``mapping`` (must be injective)."""
        new_names = [mapping.get(s, s) for s in self.states]
        if len(set(new_names)) != len(new_names):
            raise ModelError("relabelling is not injective")
        translate = dict(zip(self.states, new_names))
        return Ctmc(
            new_names,
            {translate[s]: p for s, p in self.initial.items()},
            {
                (translate[s], translate[d]): r
                for (s, d), r in self.rates.items()
            },
            [translate[s] for s in self.failed],
        )
