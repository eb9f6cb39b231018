"""Long-run and first-passage analytics of CTMCs.

Companions to the transient solver that reliability practice asks for
beyond ``Pr[Reach^{<=t}(F)]``:

* :func:`mean_time_to_failure` — the expected first-passage time into
  the failed set (the MTTF a repairable-system datasheet quotes);
* :func:`expected_downtime` — the expected total time spent in failed
  states within a mission window (the unavailability integral);
* :func:`eventual_failure_probability` — the probability of *ever*
  reaching the failed set (less than one when repair paths can escape
  to absorbing healthy states).

MTTF and eventual failure solve linear systems on the (sparse)
generator; downtime reads the uniformization occupancy series of
:mod:`repro.ctmc.transient`.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from repro.ctmc.chain import Ctmc
from repro.ctmc.transient import occupancy_integrals
from repro.errors import NumericalError

__all__ = [
    "mean_time_to_failure",
    "expected_downtime",
    "eventual_failure_probability",
]


def mean_time_to_failure(chain: Ctmc) -> float:
    """Expected time until the first visit to a failed state.

    Solves ``Q_TT m = -1`` over the transient (non-failed) states; the
    MTTF is the initial-distribution average of ``m``.  Infinite when
    some initially-reachable state cannot reach the failed set (the
    linear system is singular there); this is reported as ``math.inf``.
    """
    if not chain.failed:
        return math.inf
    transient = [s for s in chain.states if s not in chain.failed]
    if not transient:
        return 0.0
    index = {s: i for i, s in enumerate(transient)}
    n = len(transient)
    rows, cols, values = [], [], []
    exit_rates = np.zeros(n)
    for (source, destination), rate in chain.rates.items():
        if source in chain.failed:
            continue
        i = index[source]
        exit_rates[i] += rate
        if destination not in chain.failed:
            rows.append(i)
            cols.append(index[destination])
            values.append(rate)
    generator = sparse.csr_matrix((values, (rows, cols)), shape=(n, n))
    generator = generator - sparse.diags(exit_rates)
    rhs = -np.ones(n)
    try:
        with warnings.catch_warnings():
            # A singular system means some state never reaches failure;
            # that is a legitimate "MTTF is infinite" answer, not noise.
            warnings.simplefilter("ignore", sparse_linalg.MatrixRankWarning)
            solution = sparse_linalg.spsolve(generator.tocsc(), rhs)
    except Exception as error:  # pragma: no cover - spsolve rarely raises
        raise NumericalError(f"MTTF system is singular: {error}") from None
    if not np.all(np.isfinite(solution)) or np.any(solution < -1e-9):
        return math.inf
    total = 0.0
    for state, probability in chain.initial.items():
        if state in chain.failed:
            continue
        total += probability * solution[index[state]]
    return float(total)


def expected_downtime(
    chain: Ctmc, horizon: float, epsilon: float = 1e-10
) -> float:
    """Expected total time spent in failed states within ``[0, horizon]``.

    The unavailability integral ``∫_0^t Pr[failed at u] du``: the
    failed-state sum of :func:`repro.ctmc.transient.occupancy_integrals`.
    Unlike reachability this keeps repairs visible: a failed-and-repaired
    component contributes only its actual downtime.
    """
    occupancy = occupancy_integrals(chain, horizon, epsilon)
    return float(occupancy[chain.failed_mask()].sum())


def eventual_failure_probability(chain: Ctmc) -> float:
    """Probability of ever visiting a failed state (horizon infinity).

    Computed on the embedded jump chain: absorption probabilities into
    the failed set, solving ``(I - P_TT) h = P_TF 1``.  States with no
    outgoing transitions count as absorbing-healthy.  Equals one for
    irreducible chains with a reachable failed set.
    """
    if not chain.failed:
        return 0.0
    transient = [s for s in chain.states if s not in chain.failed]
    if not transient:
        return 1.0
    index = {s: i for i, s in enumerate(transient)}
    n = len(transient)
    matrix = np.zeros((n, n))
    to_failed = np.zeros(n)
    for state in transient:
        i = index[state]
        successors = chain.successors(state)
        total_rate = sum(rate for _, rate in successors)
        if total_rate <= 0.0:
            continue  # absorbing healthy state: never fails
        for destination, rate in successors:
            probability = rate / total_rate
            if destination in chain.failed:
                to_failed[i] += probability
            else:
                matrix[i, index[destination]] += probability
    try:
        hitting = np.linalg.solve(np.eye(n) - matrix, to_failed)
    except np.linalg.LinAlgError as error:
        raise NumericalError(f"hitting system is singular: {error}") from None
    hitting = np.clip(hitting, 0.0, 1.0)
    total = 0.0
    for state, probability in chain.initial.items():
        if state in chain.failed:
            total += probability
        else:
            total += probability * hitting[index[state]]
    return float(min(1.0, total))
