"""Quantification of minimal cutsets (Section V-C, quantification step).

For a cutset model built by :mod:`repro.core.cutset_model`:

* a purely static cutset has ``p̃(C) = prod p(a)``;
* a dynamic cutset needs the product chain of its small ``FT_C`` and a
  transient first-passage analysis up to the horizon, multiplied by the
  probabilities of the static events of ``C``.

Identical ``FT_C`` shapes recur massively across a cutset list (the same
redundant trains appear in thousands of cutsets), so the expensive
chain solve is cached on a structural signature of the model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.cutset_model import CutsetModel, build_cutset_model
from repro.core.sdft import SdFaultTree
from repro.ctmc.product import build_product
from repro.ctmc.transient import reach_probability
from repro.obs.core import NULL_OBS
from repro.perf.fingerprint import model_signature
from repro.robust import faults

if TYPE_CHECKING:
    from repro.core.classify import ClassificationReport
    from repro.ctmc.product import ProductChain
    from repro.obs.core import Observability
    from repro.obs.metrics import MetricsRegistry, NullMetrics
    from repro.perf.cache import SolveCache
    from repro.robust.budget import Budget

__all__ = [
    "McsQuantification",
    "QuantificationCache",
    "bound_record",
    "quantify_cutset",
    "solve_product",
]

@dataclass(frozen=True)
class McsQuantification:
    """Result of quantifying one minimal cutset.

    ``chain_states`` and ``solve_seconds`` are zero for static cutsets
    and for cache hits; ``n_dynamic_in_model``/``n_added_dynamic`` are
    the statistics reported in the paper's Figure 2 and Section VI-A.

    When a cutset was answered by the degradation ladder's bound rung
    (e.g. its chain exceeded the size budget), ``bounded`` is set,
    ``probability`` holds the conservative *upper* bound and
    ``lower_bound`` the matching lower bound (the approximation of the
    paper's Section VIII).
    """

    cutset: frozenset[str]
    probability: float
    is_dynamic: bool
    n_dynamic_in_cutset: int
    n_dynamic_in_model: int
    n_added_dynamic: int
    chain_states: int
    solve_seconds: float
    cache_hit: bool = False
    trivially_zero: bool = False
    bounded: bool = False
    lower_bound: float | None = None
    #: Degradation-ladder rung that produced the value: ``"exact"`` for
    #: the full transient solve (also static/trivial cutsets),
    #: ``"bound"``, or ``"skipped"`` (budget ran out; value is the
    #: conservative static bound).
    rung: str = "exact"
    #: Names of every basic event whose content the value reads (see
    #: :attr:`repro.core.cutset_model.CutsetModel.dependencies`).  The
    #: incremental engine uses this to prove a record untouched by an
    #: edit; empty for skipped records (never reused).
    dependencies: tuple[str, ...] = ()


class QuantificationCache:
    """Memoises chain solves by structural model signature.

    The signature covers everything the reachability probability depends
    on: the dynamic events with their chain *contents*, the static
    guards with probabilities, the gate structure, the trigger edges and
    the horizon.  Chains are compared by content fingerprint
    (:meth:`repro.ctmc.chain.Ctmc.fingerprint`), so equal-but-distinct
    chain objects — models built separately, or chains revived by
    unpickling in another process — hit the cache too.  The same keys
    drive the solver farm's cross-process dedup.
    """

    def __init__(self) -> None:
        self._store: dict[tuple, tuple[float, int]] = {}
        #: Values solved outside this run's per-cutset path — pre-filled
        #: by the pool farm or read from disk — keyed by signature plus
        #: solver knobs; :func:`quantify_model` takes them in place of a
        #: local solve.
        self._solved: dict[tuple, tuple[float, int, float]] = {}
        self.hits = 0
        self.misses = 0
        #: Optional :class:`repro.perf.cache.SolveCache` backing store.
        #: An in-memory miss consults it before solving; a fresh solve
        #: is written through.  Hits from disk count as *misses* here
        #: (they are first occurrences in this run) but skip the solve.
        self.persistent: "SolveCache | None" = None

    def __contains__(self, key: tuple) -> bool:
        return key in self._store

    def signature(self, model: SdFaultTree, horizon: float) -> tuple:
        """A hashable key identifying the quantification problem."""
        return model_signature(model, horizon)

    def get(self, key: tuple) -> tuple[float, int] | None:
        """Cached ``(probability, chain size)`` or ``None``."""
        found = self._store.get(key)
        if found is not None:
            self.hits += 1
        return found

    def put(self, key: tuple, probability: float, chain_states: int) -> None:
        """Record a solve."""
        self.misses += 1
        self._store[key] = (probability, chain_states)

    def prefill(
        self,
        key: tuple,
        knobs: tuple,
        probability: float,
        chain_states: int,
        solve_seconds: float,
    ) -> None:
        """Hold a value a pool worker solved under ``knobs``.

        ``knobs`` is ``(epsilon, max_chain_states)``.  The
        value is written through to the disk layer; the run's counters
        and budget are charged only when :func:`quantify_model` takes it.
        """
        self._solved[(key, knobs)] = (probability, chain_states, solve_seconds)
        if self.persistent is not None:
            self.persistent.put_solve(key, *knobs, probability, chain_states)

    def solved(
        self, key: tuple, knobs: tuple
    ) -> tuple[float, int, float] | None:
        """``(probability, chain size, solve seconds)`` solved elsewhere.

        A pool pre-fill, else a disk-layer entry (remembered, so the disk
        is read once per signature), else ``None``.
        """
        found = self._solved.get((key, knobs))
        if found is None and self.persistent is not None:
            warm = self.persistent.get_solve(key, *knobs)
            if warm is not None:
                found = self._solved[(key, knobs)] = (warm[0], warm[1], 0.0)
        return found


def quantify_cutset(
    sdft: SdFaultTree,
    cutset: frozenset[str],
    horizon: float,
    classes: "ClassificationReport | None" = None,
    cache: QuantificationCache | None = None,
    epsilon: float = 1e-12,
    max_chain_states: int = 200_000,
    budget: "Budget | None" = None,
    obs: "Observability | None" = None,
) -> McsQuantification:
    """Compute ``p̃(C)`` for one minimal cutset.

    ``classes`` and ``cache`` are optional shared state for bulk runs
    (see :mod:`repro.core.analyzer`).  A chain that would exceed
    ``max_chain_states`` raises
    :class:`~repro.errors.ChainTooLargeError`; the degradation ladder
    (:mod:`repro.robust.ladder`) answers it by the interval bound of
    :mod:`repro.core.bounds`.  ``budget`` is
    an optional :class:`repro.robust.budget.Budget` charged for the
    chain states solved and polled for the wall-clock deadline.
    ``obs`` is an optional :class:`repro.obs.core.Observability`
    bundle recording a span (and solver metrics) per actual chain
    solve.
    """
    model = build_cutset_model(sdft, cutset, classes)
    return quantify_model(
        model,
        horizon,
        cache,
        epsilon,
        max_chain_states,
        budget,
        obs,
    )


def quantify_model(
    model: CutsetModel,
    horizon: float,
    cache: QuantificationCache | None = None,
    epsilon: float = 1e-12,
    max_chain_states: int = 200_000,
    budget: "Budget | None" = None,
    obs: "Observability | None" = None,
) -> McsQuantification:
    """Quantify an already-built cutset model.

    When tracing is enabled (``obs``), each *actual* solve — a cache
    miss on a dynamic model — records a ``quantify.solve`` span with
    the cutset, chain size and resulting probability; static cutsets
    and cache hits record nothing (they do no solver work).
    """
    if model.trivially_zero:
        return _dynamic_record(model, 0.0, 0, 0.0, trivially_zero=True)
    if model.model is None:
        return McsQuantification(
            model.cutset,
            model.static_factor,
            False,
            0,
            0,
            0,
            0,
            0.0,
            dependencies=model.dependencies,
        )

    key = cache.signature(model.model, horizon) if cache is not None else None
    if key is not None:
        found = cache.get(key)
        if found is not None:
            return _dynamic_record(model, found[0], found[1], 0.0, cache_hit=True)
        solved = cache.solved(key, (epsilon, max_chain_states))
        if solved is not None:
            # A pool worker or a prior run (disk) already solved this
            # exact model under these exact solver knobs.  Keep the
            # run's accounting identical to a fresh solve: the budget is
            # charged for the states the solve cost, and the in-memory
            # cache is primed so later members of the group hit it.
            probability, solved_states, seconds = solved
            if budget is not None:
                budget.charge_states(solved_states, "quantify")
            cache.put(key, probability, solved_states)
            return _dynamic_record(model, probability, solved_states, seconds)

    obs = obs if obs is not None else NULL_OBS
    started = time.perf_counter()
    with obs.tracer.span(
        "quantify.solve", cutset="+".join(sorted(model.cutset))
    ) as span:
        faults.check("chain_build", cutset=model.cutset)
        product = build_product(model.model, max_states=max_chain_states)
        dynamic_probability = solve_product(
            product, horizon, epsilon, budget, obs.metrics, model.cutset
        )
        solved_states = product.n_states
        span.set(chain_states=solved_states, probability=dynamic_probability)
    elapsed = time.perf_counter() - started
    if key is not None:
        cache.put(key, dynamic_probability, solved_states)
        if cache.persistent is not None:
            cache.persistent.put_solve(
                key, epsilon, max_chain_states, dynamic_probability, solved_states
            )
    return _dynamic_record(model, dynamic_probability, solved_states, elapsed)


def solve_product(
    product: "ProductChain",
    horizon: float,
    epsilon: float,
    budget: "Budget | None",
    metrics: "MetricsRegistry | NullMetrics",
    cutset: frozenset[str],
) -> float:
    """The reach probability of a built product chain.

    The one solve body shared by :func:`quantify_model` and the pool
    worker (:func:`repro.perf.pool.solve_task`): the budget charge, the
    transient solve and their fault-injection checkpoints, in that
    order, so a fault trips identically on every ``jobs`` setting.
    """
    if budget is not None:
        budget.charge_states(product.n_states, "quantify")
    faults.check("transient_solve", cutset=cutset)
    probability = reach_probability(
        product.chain, horizon, epsilon=epsilon, budget=budget, metrics=metrics
    )
    return faults.corrupt("solve_value", probability, cutset=cutset)


def _dynamic_record(
    model: CutsetModel,
    probability: float,
    chain_states: int,
    solve_seconds: float,
    cache_hit: bool = False,
    trivially_zero: bool = False,
) -> McsQuantification:
    """The record of a dynamic cutset whose chain value is ``probability``."""
    return McsQuantification(
        model.cutset,
        probability * model.static_factor,
        True,
        model.n_dynamic_in_cutset,
        model.n_dynamic_in_model,
        model.n_added_dynamic,
        chain_states,
        solve_seconds,
        cache_hit=cache_hit,
        trivially_zero=trivially_zero,
        dependencies=model.dependencies,
    )


def bound_record(
    model: CutsetModel, horizon: float, epsilon: float = 1e-12
) -> McsQuantification:
    """Quantify a cutset by the interval bound of :mod:`repro.core.bounds`.

    The last rung of the degradation ladder: ``probability`` is the
    conservative upper bound, ``lower_bound`` the matching lower bound,
    and ``bounded`` is set so interval reporting picks it up.
    """
    started = time.perf_counter()
    faults.check("bound", cutset=model.cutset)
    from repro.core.bounds import bound_cutset

    interval = bound_cutset(model, horizon, epsilon)
    return McsQuantification(
        model.cutset,
        interval.upper,
        True,
        model.n_dynamic_in_cutset,
        model.n_dynamic_in_model,
        model.n_added_dynamic,
        0,
        time.perf_counter() - started,
        bounded=True,
        lower_bound=interval.lower,
        rung="bound",
        dependencies=model.dependencies,
    )
