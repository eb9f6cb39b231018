"""Transient and first-passage analysis of CTMCs.

The work-horse of the dynamic quantification: given a chain and a time
horizon ``t``, compute the transient distribution and the time-bounded
reachability probability ``Pr[Reach^{<=t}(F)]`` (paper, Section III-C2).

Two backends:

* ``"uniformization"`` (default) — the standard randomisation method,
  also used by PRISM.  The generator is scaled into a DTMC and the
  transient distribution is a Poisson mixture of its powers; the Poisson
  series is truncated adaptively so the result carries an explicit error
  bound.  Works with sparse matrices and scales to large chains.
* ``"expm"`` — dense matrix exponential via :func:`scipy.linalg.expm`,
  exact up to floating point; used as an oracle for the uniformization
  implementation and for very stiff small chains.

Reachability reduces to transient analysis by making the target states
absorbing (:meth:`repro.ctmc.chain.Ctmc.with_absorbing`), and the
occupancy integrals (expected time per state, hence downtime) are the
same uniformized series weighted by Poisson survival probabilities.
Both series run over one uniformized DTMC builder.

The solvers trust the rates: the :class:`~repro.ctmc.chain.Ctmc`
constructor already rejects negative, infinite and NaN ones.  They do
not trust their own arithmetic: every distribution a solve returns is
checked to be one (invariant P2 — finite, non-negative, mass ``1 ±
1e-6``), and occupancy vectors to conserve time mass, raising
:class:`~repro.errors.NumericalError` so the degradation ladder applies.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg, sparse
from scipy.special import gammaln

from repro.ctmc.chain import Ctmc
from repro.errors import NumericalError
from repro.obs.metrics import NULL_METRICS

__all__ = [
    "transient_distribution",
    "reach_probability",
    "failure_probability",
    "occupancy_integrals",
    "steady_state",
]

#: Default truncation error for the uniformization series.
DEFAULT_EPSILON = 1e-12

#: Series length guard: horizons needing more terms indicate a mis-scaled model.
_MAX_TERMS = 4_000_000

#: Always-on output guard: tolerated drift of probability mass (the
#: solver's own truncation error compounds over the series, so this is
#: looser than the truncation epsilon).
_MASS_TOLERANCE = 1e-6


def _checked_distribution(distribution: np.ndarray, what: str) -> np.ndarray:
    """Assert a solver output is a probability distribution.

    Entrywise finite and non-negative, total mass ``1 ± tol``: invariant
    P2 of :mod:`repro.robust.verify`, checked here on every transient
    solve whatever the verify mode, raising
    :class:`~repro.errors.NumericalError` so existing recovery paths
    apply.  Vectorised: costs two passes over a dense vector.
    """
    if not np.isfinite(distribution).all():
        raise NumericalError(f"{what} contains non-finite entries")
    if float(distribution.min(initial=0.0)) < -_MASS_TOLERANCE:
        raise NumericalError(
            f"{what} contains negative entries "
            f"(min {float(distribution.min()):.3e})"
        )
    total = float(distribution.sum())
    if abs(total - 1.0) > _MASS_TOLERANCE:
        raise NumericalError(
            f"{what} does not conserve probability mass: sums to {total!r} "
            f"(drift {total - 1.0:.3e})"
        )
    return distribution


def transient_distribution(
    chain: Ctmc,
    horizon: float,
    method: str = "uniformization",
    epsilon: float = DEFAULT_EPSILON,
    budget=None,
    metrics=None,
) -> np.ndarray:
    """Distribution over states at time ``horizon``.

    Returns a dense vector indexed like ``chain.states``.  ``epsilon``
    bounds the truncation error of the uniformization series in total
    variation (ignored by the ``expm`` backend).  ``budget`` is an
    optional :class:`repro.robust.budget.Budget` whose wall-clock
    deadline is polled cooperatively between series terms.  ``metrics``
    is an optional :class:`repro.obs.metrics.MetricsRegistry` that
    receives the series-length histogram and early-exit counter (one
    registry call per solve — never inside the series loop).
    """
    if horizon < 0.0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    nu = chain.initial_vector()
    if horizon == 0.0 or not chain.rates:
        return nu
    what = f"transient distribution ({chain.n_states} states, t={horizon:g})"
    if method == "uniformization":
        return _checked_distribution(
            _uniformization(chain, horizon, epsilon, budget, metrics), what
        )
    if method == "expm":
        generator = chain.generator_matrix().toarray()
        return _checked_distribution(nu @ linalg.expm(generator * horizon), what)
    raise ValueError(f"unknown transient method {method!r}")


def reach_probability(
    chain: Ctmc,
    horizon: float,
    targets=None,
    method: str = "uniformization",
    epsilon: float = DEFAULT_EPSILON,
    budget=None,
    metrics=None,
) -> float:
    """``Pr[Reach^{<=t}(targets)]`` — visit a target before the horizon.

    ``targets`` defaults to the chain's failed states.  The computation
    makes the targets absorbing and reads off their transient mass.
    The transient vector is indexed through the *absorbed* chain's own
    index: today :meth:`~repro.ctmc.chain.Ctmc.with_absorbing`
    preserves state order, but reading the absorbed distribution
    through the original chain's index would silently misattribute
    probability mass the day that ever changes.
    """
    target_set = frozenset(targets) if targets is not None else chain.failed
    if not target_set:
        return 0.0
    absorbed = chain.with_absorbing(target_set)
    distribution = transient_distribution(
        absorbed, horizon, method, epsilon, budget, metrics
    )
    # Sum in index order: frozenset iteration order follows the hash
    # seed, and a different summation order moves the last ulp.
    indices = sorted(absorbed.index[s] for s in target_set)
    return float(min(1.0, distribution[indices].sum()))


def failure_probability(
    chain: Ctmc,
    horizon: float,
    method: str = "uniformization",
    epsilon: float = DEFAULT_EPSILON,
) -> float:
    """Probability of visiting a failed state within the horizon.

    The quantity the paper calls ``Pr[Reach^{<=t}(F)]``; alias of
    :func:`reach_probability` with the chain's own failed set.
    """
    return reach_probability(chain, horizon, None, method, epsilon)


def occupancy_integrals(
    chain: Ctmc, horizon: float, epsilon: float = 1e-10
) -> np.ndarray:
    """Expected time spent in each state within ``[0, horizon]``.

    The vector ``∫_0^t pi_u du`` by the uniformization identity

    ``∫_0^t pi_u du = (1/q) * sum_k pi_k * Pr[Poisson(q t) > k]``

    with the DTMC iterates ``pi_k``.  The entries sum to ``horizon``.
    Building block for downtime analysis and for flux attribution
    (which transition absorbed the probability mass).
    """
    if horizon < 0.0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    n = chain.n_states
    if horizon == 0.0:
        return np.zeros(n)
    uniformized = _uniformized(chain)
    if uniformized is None:
        return chain.initial_vector() * horizon
    dtmc, _, q = uniformized
    qt = q * horizon
    pi = chain.initial_vector()
    advice = "rescale the model"
    if _weight_out_of_reach(qt, epsilon):  # no early exit in this series
        raise _series_too_long("occupancy series", n, horizon, qt, advice)
    total = np.zeros(n)
    cdf = 0.0
    k = 0
    log_qt = math.log(qt)
    while True:
        log_pmf = -qt + k * log_qt - float(gammaln(k + 1))
        pmf = math.exp(log_pmf)
        survival = max(0.0, 1.0 - cdf - pmf)  # Pr[Poisson > k]
        total += pi * survival
        cdf += pmf
        if cdf >= 1.0 - epsilon and survival < epsilon:
            break
        k += 1
        if k > _MAX_TERMS:
            raise _series_too_long("occupancy series", n, horizon, qt, advice)
        pi = pi @ dtmc
    occupancy = total / q
    # Same always-on guard as the transient output, rescaled: the
    # occupancy entries are times, their mass is the horizon itself.
    if not np.isfinite(occupancy).all():
        raise NumericalError(
            f"occupancy vector contains non-finite entries "
            f"(chain of {n} states, horizon {horizon:g})"
        )
    mass = float(occupancy.sum())
    if (
        float(occupancy.min(initial=0.0)) < -_MASS_TOLERANCE * horizon
        or abs(mass - horizon) > _MASS_TOLERANCE * max(1.0, horizon)
    ):
        raise NumericalError(
            f"occupancy vector does not conserve time mass: sums to "
            f"{mass!r} over horizon {horizon:g}"
        )
    return occupancy


def steady_state(chain: Ctmc) -> np.ndarray:
    """Stationary distribution of an irreducible chain.

    Solves ``pi Q = 0`` with the normalisation ``sum(pi) = 1`` by a dense
    least-squares system.  Raises :class:`~repro.errors.NumericalError`
    if the chain has no unique stationary distribution (the residual
    betrays reducibility).  Used for long-run availability analyses.
    """
    n = chain.n_states
    generator = chain.generator_matrix().toarray()
    # Append the normalisation as an extra equation.
    system = np.vstack([generator.T, np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    solution, residual, rank, _ = np.linalg.lstsq(system, rhs, rcond=None)
    if rank < n:
        raise NumericalError(
            f"chain of {n} states is reducible: no unique stationary "
            f"distribution (rank {rank} < {n})"
        )
    pi = np.clip(solution, 0.0, None)
    total = pi.sum()
    if total <= 0.0:
        raise NumericalError(
            f"stationary solve produced a zero vector (chain of {n} states)"
        )
    return pi / total


# ----------------------------------------------------------------------
# Uniformization
# ----------------------------------------------------------------------


def _series_too_long(
    what: str, n: int, horizon: float, qt: float, advice: str
) -> NumericalError:
    return NumericalError(
        f"{what} needs more than {_MAX_TERMS} terms "
        f"(chain of {n} states, horizon {horizon:g}, "
        f"q*t = {qt:.3g}); {advice}"
    )


def _weight_out_of_reach(qt: float, epsilon: float) -> bool:
    """Whether ``_MAX_TERMS`` Poisson weights stay below ``1 - epsilon``.

    The mass of ``Poisson(q t)`` below ``q t - 20 sqrt(q t)`` is under
    ``e^-200`` (Chernoff), so when that point lies past ``_MAX_TERMS`` a
    series whose only exit is its accumulated weight runs every term
    and then raises: checking first raises the same error before the
    first mat-vec, and every series that finishes is untouched.
    """
    return epsilon < 1.0 and qt - 20.0 * math.sqrt(qt) > _MAX_TERMS


def _uniformization(
    chain: Ctmc, horizon: float, epsilon: float, budget=None, metrics=None
) -> np.ndarray:
    """Transient distribution by randomisation with adaptive truncation.

    With uniformization rate ``q >= max exit rate``, the DTMC
    ``P = I + Q/q`` satisfies ``pi_t = sum_k Poisson(k; q t) nu P^k``.
    The series is cut off once the accumulated Poisson weight exceeds
    ``1 - epsilon``; the remaining mass bounds the error in total
    variation.  Poisson weights use a log-space recurrence, so large
    ``q t`` does not underflow.  A ``budget`` deadline is polled every
    few hundred terms, so a stiff solve yields control promptly.
    """
    # Check upfront too: short series never reach the in-loop poll, and
    # an already-expired budget should not start new solves at all.
    if budget is not None:
        budget.check_deadline("transient")
    metrics = metrics if metrics is not None else NULL_METRICS
    early_exit = False
    uniformized = _uniformized(chain)
    if uniformized is None:
        return chain.initial_vector()
    dtmc, exit_rates, q = uniformized
    qt = q * horizon
    n = chain.n_states

    # Early-exit support: states with no outgoing rate are fixed points
    # of the DTMC, so once (almost) all probability mass sits on them
    # the iterates have converged and the remaining Poisson tail can be
    # added analytically.  This is exactly the reachability shape — the
    # targets are made absorbing — where long horizons otherwise burn
    # thousands of no-op series terms.
    mobile = exit_rates > 0.0
    watch_absorption = bool(mobile.any()) and not bool(mobile.all())
    advice = "rescale the model or use method='expm'"
    if not watch_absorption and _weight_out_of_reach(qt, epsilon):
        raise _series_too_long("uniformization", n, horizon, qt, advice)

    log_qt = math.log(qt)
    pi = chain.initial_vector()
    result = np.zeros(n)
    accumulated = 0.0
    k = 0
    while True:
        log_weight = -qt + k * log_qt - float(gammaln(k + 1))
        weight = math.exp(log_weight)
        result += weight * pi
        accumulated += weight
        if accumulated >= 1.0 - epsilon:
            break
        if watch_absorption and float(pi[mobile].sum()) <= epsilon:
            # Mass still able to move is below the truncation tolerance:
            # all future iterates equal pi within epsilon (mobile mass is
            # non-increasing under an absorbing DTMC), so the rest of the
            # series contributes (1 - accumulated) * pi up to epsilon.
            result += (1.0 - accumulated) * pi
            accumulated = 1.0
            early_exit = True
            break
        k += 1
        if k > _MAX_TERMS:
            raise _series_too_long("uniformization", n, horizon, qt, advice)
        if budget is not None and not (k & 255):
            budget.check_deadline("transient")
        pi = pi @ dtmc
    # One registry call per solve, after the series loop: the traced
    # quantities stay deterministic and the loop itself stays untouched.
    metrics.observe("transient.series_terms", k + 1)
    if early_exit:
        metrics.count("transient.early_exit")
    # Renormalise by the accumulated weight: distributes the truncated
    # tail proportionally, keeping the result a distribution.
    return result / accumulated


def _uniformized(
    chain: Ctmc,
) -> tuple[sparse.csr_matrix, np.ndarray, float] | None:
    """The uniformized DTMC ``P = I + Q/q`` of ``chain``, its exit rates and ``q``.

    ``q`` is the largest exit rate inflated by 2%: the conventional
    margin keeps the diagonal of ``P`` strictly positive, which makes
    the DTMC aperiodic.  Each diagonal entry is then corrected so its
    row sums to exactly one — ``I + Q/q`` does this analytically, but
    the drift of floating-point summation would otherwise compound over
    thousands of powers.  Row sums come from a mat-vec with ones, which
    adds each row's entries left to right in column order; the diagonal
    is stored in every row (``I`` put it there), so one ``setdiag``
    corrects all rows in place.  This happens once, before any series
    loop, so every iteration is a single sparse mat-vec.  ``None`` for
    a frozen chain (no positive exit rate), whose distribution never
    moves.
    """
    rate_matrix = chain.rate_matrix()
    exit_rates = np.asarray(rate_matrix.sum(axis=1)).ravel()
    q = float(exit_rates.max())
    if q <= 0.0:
        return None
    q *= 1.02
    dtmc = rate_matrix / q + sparse.eye(chain.n_states, format="csr")
    row_sums = dtmc @ np.ones(chain.n_states)
    dtmc.setdiag(dtmc.diagonal() + (1.0 - row_sums))
    return dtmc, exit_rates, q
