"""Worst-case failure probabilities for dynamic basic events.

The static translation ``FT̄`` (Section V-B2) needs a probability for
each basic event that used to be dynamic.  Computing the *true*
probability of a triggered event failing within the horizon would
require the whole tree's state space, so the paper substitutes the
worst case over all possible triggering environments:

``p(a) = sup over all SD trees containing a of Pr[Reach^{<=t}(Failed(a))]``

For the monotone chain families used in practice (and everywhere in the
paper's experiments) the supremum is attained by the environment that
triggers the event at time 0 and never untriggers it: being switched on
earlier only increases exposure to the (higher) active failure rates,
and untriggering only pauses degradation.  That shape is exactly
:meth:`~repro.ctmc.triggered.TriggeredCtmc.untriggered_view`, reducing
the worst case to a first-passage computation on the event's own chain.

Correctness note: the worst-case choice is conservative by construction
(``FT`` itself is in the supremum's range), so the MOCUS cutoff on
``FT̄`` never loses a cutset whose true probability is above the cutoff.
"""

from __future__ import annotations

from typing import Mapping

from repro.ctmc.chain import Ctmc
from repro.ctmc.transient import failure_probability
from repro.ctmc.triggered import TriggeredCtmc
from repro.core.sdft import SdFaultTree

__all__ = ["by_fingerprint", "worst_case_probability", "worst_case_probabilities"]


def worst_case_probability(
    chain: Ctmc, horizon: float, epsilon: float = 1e-12
) -> float:
    """Worst-case probability that the event fails within the horizon.

    For an untriggered chain this is simply its first-passage
    probability to the failed states; for a triggered chain the initial
    distribution is pushed through ``switch_on`` first (triggered at
    time 0, never untriggered).
    """
    if isinstance(chain, TriggeredCtmc):
        chain = chain.untriggered_view()
    return failure_probability(chain, horizon, epsilon=epsilon)


def worst_case_probabilities(
    sdft: SdFaultTree,
    horizon: float,
    epsilon: float = 1e-12,
    solved: Mapping[str, float] | None = None,
) -> dict[str, float]:
    """Worst-case probabilities for every dynamic event of the tree.

    Chains with the same content (:meth:`~repro.ctmc.chain.Ctmc.fingerprint`)
    are solved once.  ``solved`` maps chain fingerprints to worst cases
    already computed at this ``horizon`` and ``epsilon`` — a previous
    run's :func:`by_fingerprint` — and those chains are not solved
    again: an edit that leaves a chain's content alone costs it no
    solve.
    """
    by_chain: dict[str, float] = dict(solved or {})
    result: dict[str, float] = {}
    for name, event in sdft.dynamic_events.items():
        key = event.chain.fingerprint()
        if key not in by_chain:
            by_chain[key] = worst_case_probability(event.chain, horizon, epsilon)
        result[name] = by_chain[key]
    return result


def by_fingerprint(
    sdft: SdFaultTree, worst_case: Mapping[str, float]
) -> dict[str, float]:
    """Re-key per-event worst cases of ``sdft`` by chain fingerprint.

    The ``solved`` map a later :func:`worst_case_probabilities` call on
    an edited model accepts; one entry per distinct chain of ``sdft``.
    """
    return {
        event.chain.fingerprint(): worst_case[name]
        for name, event in sdft.dynamic_events.items()
    }
