"""Bounded quantification of oversized cutset models (paper, Section VIII).

The paper's conclusions sketch the escape hatch for models that violate
the trigger restrictions badly enough to make some per-cutset chain too
large: *"Failure probabilities may be under-approximated by disregarding
interplays of several dynamic basic events.  Dually, an over-approximation
may be achieved by allowing dynamic basic events interfere irrespective
of static basic events."*  This module implements that interval
fallback:

* **Upper bound** — treat every dynamic event of the cutset as if it
  were switched on at time 0 and never untriggered (each triggered
  chain replaced by its untriggered view) and drop the trigger
  coupling entirely.  Every event then fails independently and at its
  maximal exposure; the product of worst-case first-passage
  probabilities dominates the true simultaneous-failure probability —
  this is exactly the paper's inequality (1), the same bound that makes
  the MOCUS cutoff on ``FT̄`` conservative.
* **Lower bound** — keep each event's *own* timing but count only the
  runs in which every triggered event's trigger is already failed at
  time 0 by the cutset's static events; if any triggered event depends
  on dynamic trigger timing, the contribution of those interleavings is
  disregarded (bounded below by zero for that part).  Concretely:
  events whose triggers are statically satisfied use their untriggered
  view, all others contribute their passive (never-triggered) failure
  probability — the minimal exposure consistent with the semantics.
  The remaining events are independent.  A lone one contributes its
  reach probability, which is exact.  With two or more, "each failed
  at some point" is not "all failed at once" (a repairable event may
  be back up before the last one fails), so each contributes its
  failed-state mass at the horizon instead: all of them down at time
  ``t`` is one way of all being down together before ``t``.

Both bounds multiply with the cutset's static factor as usual.  The
analyzer uses this interval when a cutset's chain would exceed
``max_chain_states`` and interval mode is enabled, instead of failing
the whole analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cutset_model import TOP_GATE, CutsetModel
from repro.ctmc.chain import Ctmc
from repro.ctmc.transient import failure_probability, transient_distribution
from repro.ctmc.triggered import TriggeredCtmc

__all__ = ["ProbabilityInterval", "bound_cutset"]


@dataclass(frozen=True)
class ProbabilityInterval:
    """A two-sided bound on one cutset's quantified probability."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        assert self.lower <= self.upper + 1e-15, (self.lower, self.upper)

    @property
    def width(self) -> float:
        """Absolute width of the interval."""
        return self.upper - self.lower

    def midpoint(self) -> float:
        """The centre of the interval (a pragmatic point estimate)."""
        return 0.5 * (self.lower + self.upper)


def bound_cutset(
    model: CutsetModel, horizon: float, epsilon: float = 1e-12
) -> ProbabilityInterval:
    """Bound ``p̃(C)`` without building the product chain.

    Works directly on the cutset model's per-event chains; cost is one
    small single-chain transient solve per dynamic event in the cutset.
    """
    if model.trivially_zero:
        return ProbabilityInterval(0.0, 0.0)
    if model.model is None:
        return ProbabilityInterval(model.static_factor, model.static_factor)

    sdft_c = model.model
    # Only the cutset's own dynamic events appear under the top AND gate.
    top_children = sdft_c.gates[TOP_GATE].children

    upper = 1.0
    lower = 1.0
    jointly = len(top_children) > 1
    for name in top_children:
        chain = sdft_c.chain_of(name)
        if isinstance(chain, TriggeredCtmc):
            on_view = chain.untriggered_view()
            upper *= failure_probability(on_view, horizon, epsilon=epsilon)
            # Never-triggered exposure: the chain as-is starts (and
            # stays) off, so only passive failure paths count — and the
            # off-states are never failed, so this is zero unless the
            # trigger is statically satisfied (then the event would have
            # been rewritten to its untriggered view already).
            lower *= 0.0
        else:
            value = failure_probability(chain, horizon, epsilon=epsilon)
            upper *= value
            lower *= _failed_mass(chain, horizon, epsilon) if jointly else value
    return ProbabilityInterval(
        lower * model.static_factor, upper * model.static_factor
    )


def _failed_mass(chain: Ctmc, horizon: float, epsilon: float) -> float:
    """``Pr[X(t) ∈ F]``: the chain's failed-state mass at the horizon."""
    distribution = transient_distribution(chain, horizon, epsilon=epsilon)
    indices = sorted(chain.index[state] for state in chain.failed)
    return float(min(1.0, distribution[indices].sum()))
