"""MOCUS-style generation of minimal cutsets with a probabilistic cutoff.

This is the algorithm behind commercial static solvers such as
RiskSpectrum and Saphire (paper, Section IV-B).  It systematically
refines *partial cutsets* — a set of basic events already chosen to fail
plus a set of gates that still must be failed — starting from
``{g_top}``:

* an AND gate is replaced by all of its children (no branching),
* an OR gate branches the partial cutset, one branch per child,
* an ATLEAST gate branches once per k-subset of its children.

Efficiency comes from three prunings:

* the probabilistic **cutoff**: a partial cutset whose event-probability
  product is at or below ``c*`` (the paper uses ``1e-15``) is discarded —
  gates can only shrink the product further.  In-search pruning carries a
  tiny ULP slack (``_CUTOFF_SLACK``) so boundary-straddling partials
  survive to completion and the final *canonical* per-cutset product
  (:func:`repro.ft.cutsets.cutset_probability`) decides membership: the
  returned set is a pure function of the model, not of the search's
  multiplication order.  A probability parked *exactly on* the cutoff is
  still a single-rounding coin flip — don't park probabilities on the
  boundary;
* **deduplication** of identical partial cutsets (shared subtrees in the
  DAG regenerate the same states).  The seen-map, the largest
  allocation of a big search, keys each gate mask to the set of event
  masks enqueued with it, so a child is looked up on the two masks it
  already holds, with no key object built per state;
* **subsumption**: a partial whose events already contain a completed
  cutset can only yield non-minimal cutsets (the bitmask kernel of
  :mod:`repro.ft.cutsets`, which also minimises the completed list).

Internally both event sets and gate sets are integer bitmasks, so the
hot loop is C-speed integer arithmetic; names reappear only in the final
cutset list.

The module also exposes :func:`constrained_mcs`, the variant needed by
the SD cutset-model construction of Section V-C: minimal failure sets of
an arbitrary gate over a restricted universe of events, under hard
true/false assumptions for other events.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from repro.errors import BudgetExceededError, CutoffError, UnknownNodeError
from repro.ft.cutsets import CutSetList, is_subsumed_mask, minimize_masks
from repro.ft.normalize import restrict
from repro.ft.tree import FaultTree, GateType
from repro.robust import faults

if TYPE_CHECKING:  # imported only for signatures: keeps runtime deps one-way
    from repro.obs.metrics import MetricsRegistry
    from repro.robust.budget import Budget

__all__ = [
    "MocusOptions",
    "MocusPartial",
    "MocusResult",
    "MocusStats",
    "mocus",
    "constrained_mcs",
]

#: Default probabilistic cutoff, matching the paper's experiments.
DEFAULT_CUTOFF = 1e-15

#: In-search pruning slack.  The running product of a partial cutset is
#: accumulated in expansion order, which can round a hair differently
#: from the canonical per-cutset product (:func:`cutset_probability`).
#: Pruning only when ``running * (1 + slack) <= cutoff`` keeps
#: boundary-straddling partials alive to completion so the final
#: canonical ``truncate`` decides membership — making the returned set
#: {C minimal : canonical(C) > cutoff}, a pure function of the model
#: rather than of the search's multiplication order.  1e-12 relative
#: covers ~4500 ULPs, far beyond the drift of any realistic cutset.
_CUTOFF_SLACK = 1.0 + 1e-12

@dataclass(frozen=True)
class MocusOptions:
    """Tuning knobs for the MOCUS search.

    Parameters
    ----------
    cutoff:
        Partial cutsets with event-probability product at or below this
        value are discarded (``0.0`` disables the cutoff and makes the
        search exact but potentially exponential).
    max_partials:
        Hard limit on the number of partial cutsets ever enqueued;
        exceeding it raises :class:`~repro.errors.CutoffError` rather than
        looping for hours.
    max_cutsets:
        Hard limit on the number of completed (pre-minimisation) cutsets.
    """

    cutoff: float = DEFAULT_CUTOFF
    max_partials: int = 20_000_000
    max_cutsets: int = 5_000_000


@dataclass
class MocusStats:
    """Counters describing one MOCUS run (attached to the result)."""

    partials_expanded: int = 0
    partials_cut_off: int = 0
    partials_deduplicated: int = 0
    partials_subsumed: int = 0
    completed: int = 0
    minimal: int = 0


@dataclass(frozen=True)
class MocusResult:
    """Minimal cutsets plus the search statistics that produced them.

    ``truncated`` marks a search cut short by a cooperative budget
    (:mod:`repro.robust.budget`): the cutsets are genuine minimal
    cutsets, but more may exist.  ``remainder_bound`` then bounds the
    probability mass of everything un-enumerated — by the union bound,
    any failure scenario not covered by a completed cutset must fail
    every event of some frontier partial, so the sum of frontier
    partial probabilities dominates the missed contribution.
    """

    cutsets: CutSetList
    stats: MocusStats = field(default_factory=MocusStats)
    truncated: bool = False
    remainder_bound: float = 0.0
    #: The complete minimal cutsets *before* cutoff truncation, as
    #: sorted name tuples — what the persistent cache stores so a warm
    #: run can re-truncate locally (empty for truncated searches).
    full_cutsets: tuple[tuple[str, ...], ...] = ()

    @classmethod
    def from_family(
        cls,
        family: Iterable[Iterable[str]],
        tree: FaultTree,
        cutoff: float,
        *,
        minimal: bool = True,
        stats: MocusStats | None = None,
        truncated: bool = False,
        remainder_bound: float = 0.0,
    ) -> MocusResult:
        """The served result for a family of event-name sets.

        The one constructor every cutset source goes through (search,
        persistent cache, checkpoint, incremental engine): the family is
        sorted over ``tree``'s event probabilities, truncated by the
        canonical ``p > cutoff`` rule when ``cutoff`` is positive, and
        kept whole in ``full_cutsets`` unless ``truncated``.  A family
        not known to be minimal passes ``minimal=False`` and is
        re-minimised first.
        """
        given = [frozenset(cutset) for cutset in family]
        probabilities = {
            name: event.probability for name, event in tree.events.items()
        }
        complete = CutSetList.from_cutsets(given, probabilities, minimal=minimal)
        if stats is None:
            stats = MocusStats(completed=len(given), minimal=len(complete))
        return cls(
            complete.truncate(cutoff) if cutoff > 0.0 else complete,
            stats,
            truncated,
            remainder_bound,
            () if truncated else tuple(tuple(sorted(c)) for c in complete),
        )


@dataclass(frozen=True)
class MocusPartial:
    """Work salvaged from a budget-interrupted MOCUS run.

    Attached as ``partial`` to the :class:`BudgetExceededError` so the
    analyzer can keep the truncated result and checkpoint the frontier.
    ``frontier`` is the name-based snapshot accepted by
    ``mocus(resume=...)``.
    """

    result: MocusResult
    frontier: dict


def mocus(
    tree: FaultTree,
    options: MocusOptions | None = None,
    top: str | None = None,
    budget: Budget | None = None,
    on_progress: Callable[[Callable[[], dict]], None] | None = None,
    progress_every: int = 100_000,
    resume: dict | None = None,
    metrics: MetricsRegistry | None = None,
) -> MocusResult:
    """Generate minimal cutsets of ``tree`` (or of the gate ``top``).

    Returns a :class:`MocusResult` whose cutset list is sorted by
    descending probability.  With a nonzero cutoff the list contains the
    minimal cutsets with probability above the cutoff (dropping
    below-cutoff ones is the standard, deliberately conservative
    under-approximation of Section IV-A).

    ``budget`` is an optional :class:`repro.robust.budget.Budget`
    polled cooperatively; when it runs out the raised
    :class:`BudgetExceededError` carries a :class:`MocusPartial` with
    the minimal cutsets found so far and a resumable frontier snapshot.
    ``on_progress`` is called every ``progress_every`` expansions with a
    zero-argument snapshot builder (checkpointing hook).  ``resume``
    restarts the search from a snapshot produced by either mechanism.
    ``metrics`` is an optional
    :class:`repro.obs.metrics.MetricsRegistry`; the search counters are
    emitted once when the search finishes (also on budget truncation),
    never from inside the expansion loop.
    """
    opts = options or MocusOptions()
    root = top if top is not None else tree.top
    if not tree.is_gate(root):
        raise UnknownNodeError(f"top node {root!r} is not a gate")
    compiled = _compile(tree, root)
    stats = MocusStats()
    use_cutoff = opts.cutoff > 0.0

    # A partial cutset is (probability, event mask, gate mask,
    # parent-verified event mask, completed-list watermark).  The last
    # two fields drive the incremental subsumption test: when a child
    # carries the *same* event mask its parent already verified against
    # the completed list, only cutsets completed since the parent's
    # check (``completed[watermark:]``) can possibly subsume it.
    if resume is not None:
        # Restored partials carry no parental verification (-1 never
        # equals an event mask), so each gets one full check — sound,
        # and paid only once per restored frontier entry.
        stack = [
            (probability, _names_to_mask(compiled, events, False),
             _names_to_mask(compiled, gates, True), -1, 0)
            for probability, events, gates in resume["frontier"]
        ]
        completed = [
            _names_to_mask(compiled, names, False)
            for names in resume["completed"]
        ]
        completed_lookup = set(completed)
        stats.completed = len(completed)
        seen: dict[int, set[int]] = {}
        for _, events, gates, _, _ in stack:
            seen.setdefault(gates, set()).add(events)
        enqueued = len(stack)
    else:
        stack = [(1.0, 0, 1 << compiled.root_bit, -1, 0)]
        seen = {stack[0][2]: {0}}
        completed = []
        completed_lookup = set()
        enqueued = 1

    def snapshot() -> dict:
        """Name-based frontier state: stable across processes."""
        return {
            "completed": [
                sorted(_mask_to_names(compiled, mask)) for mask in completed
            ],
            "frontier": [
                [
                    probability,
                    sorted(_mask_to_names(compiled, events)),
                    _mask_to_gate_names(compiled, gates),
                ]
                for probability, events, gates, _, _ in stack
            ],
        }

    def finish() -> MocusResult:
        minimal_masks = minimize_masks(completed)
        stats.minimal = len(minimal_masks)
        if metrics is not None:
            metrics.count("mocus.partials_expanded", stats.partials_expanded)
            metrics.count("mocus.partials_cut_off", stats.partials_cut_off)
            metrics.count(
                "mocus.partials_deduplicated", stats.partials_deduplicated
            )
            metrics.count("mocus.partials_subsumed", stats.partials_subsumed)
            metrics.count("mocus.cutsets_completed", stats.completed)
            metrics.count("mocus.cutsets_minimal", stats.minimal)
        return MocusResult.from_family(
            (_mask_to_names(compiled, mask) for mask in minimal_masks),
            tree,
            opts.cutoff,
            stats=stats,
        )

    next_progress = progress_every
    pick_memo: dict[int, int] = {}
    try:
        while stack:
            # Budget polls, fault polls and progress snapshots all happen
            # before the pop, so the frontier is exactly the current
            # stack — a snapshot taken mid-expansion would lose the
            # in-flight partial and every cutset below it.
            faults.check("mocus")
            if budget is not None and not (stats.partials_expanded & 255):
                budget.check_deadline("mocus")
            if on_progress is not None and stats.partials_expanded >= next_progress:
                on_progress(snapshot)
                next_progress = stats.partials_expanded + progress_every
            probability, events, gates, verified, watermark = stack.pop()
            if completed_lookup:
                # The expensive submask walk is needed only for masks no
                # ancestor has vouched for.  A child whose event mask
                # equals the one its parent already verified can only be
                # subsumed by cutsets completed *after* that check — an
                # exact shortcut, because completions only happen at the
                # pop of a gate-free partial, never between a parent's
                # check and its pushes.
                if events == verified:
                    subsumed = False
                    if watermark != len(completed):
                        for mask in completed[watermark:]:
                            if mask & ~events == 0:
                                subsumed = True
                                break
                    if subsumed:
                        stats.partials_subsumed += 1
                        continue
                elif is_subsumed_mask(events, completed_lookup, completed):
                    stats.partials_subsumed += 1
                    continue
            if not gates:
                completed.append(events)
                completed_lookup.add(events)
                stats.completed += 1
                if stats.completed > opts.max_cutsets:
                    raise CutoffError(
                        f"MOCUS exceeded max_cutsets={opts.max_cutsets}; "
                        f"raise the cutoff or the limit"
                    )
                if budget is not None:
                    budget.charge_cutset("mocus")
                continue
            stats.partials_expanded += 1
            verified_at = len(completed)
            gate_bit = pick_memo.get(gates, -1)
            if gate_bit < 0:
                gate_bit = _pick_gate_bit(compiled, gates)
                pick_memo[gates] = gate_bit
            remaining = gates & ~(1 << gate_bit)
            for add_events, add_gates in compiled.branches[gate_bit]:
                new_bits = add_events & ~events
                new_probability = probability
                if new_bits:
                    bits = new_bits
                    while bits:
                        low = bits & -bits
                        new_probability *= compiled.probability[low.bit_length() - 1]
                        bits ^= low
                if use_cutoff and new_probability * _CUTOFF_SLACK <= opts.cutoff:
                    stats.partials_cut_off += 1
                    continue
                new_events = events | add_events
                new_gates = remaining | add_gates
                same_gates = seen.get(new_gates)
                if same_gates is None:
                    seen[new_gates] = {new_events}
                elif new_events in same_gates:
                    stats.partials_deduplicated += 1
                    continue
                else:
                    same_gates.add(new_events)
                stack.append(
                    (new_probability, new_events, new_gates, events, verified_at)
                )
                enqueued += 1
                if enqueued > opts.max_partials:
                    raise CutoffError(
                        f"MOCUS exceeded max_partials={opts.max_partials}; "
                        f"raise the cutoff or the limit"
                    )
    except BudgetExceededError as error:
        # Salvage the work: the completed cutsets are genuine minimal
        # cutsets, and the frontier's probability sum conservatively
        # bounds everything not yet enumerated (union bound over the
        # frontier branches).
        remainder = sum(entry[0] for entry in stack)
        result = finish()
        error.partial = MocusPartial(
            MocusResult(
                result.cutsets,
                result.stats,
                truncated=True,
                remainder_bound=remainder,
            ),
            snapshot(),
        )
        raise

    return finish()


def constrained_mcs(
    tree: FaultTree,
    gate_name: str,
    universe: frozenset[str],
    assumed_failed: frozenset[str] = frozenset(),
    options: MocusOptions | None = None,
) -> list[frozenset[str]] | bool:
    """Minimal subsets of ``universe`` that fail ``gate_name``.

    Every event in ``assumed_failed`` is fixed to *failed* and every
    event outside ``universe | assumed_failed`` is fixed to *functional*;
    the result lists the inclusion-minimal subsets of ``universe`` whose
    failure (on top of the assumptions) fails the gate.

    Returns ``True`` if the assumptions alone already fail the gate,
    ``False`` if the gate cannot fail under them, and the list of minimal
    sets otherwise.  This is exactly the computation of the sets
    ``A_1..A_k`` in step 2 of the ``FT_C`` construction (Section V-C).
    """
    assignment: dict[str, bool] = {}
    subtree_events = tree.events_under(gate_name)
    for name in subtree_events:
        if name in assumed_failed:
            assignment[name] = True
        elif name not in universe:
            assignment[name] = False
    restriction = restrict(tree, gate_name, assignment)
    if restriction.is_constant:
        return bool(restriction.constant)
    residual = restriction.tree
    assert residual is not None
    # The restricted tree contains only universe events; run MOCUS on it
    # without a cutoff (these trees are small by construction).
    opts = options or MocusOptions(cutoff=0.0)
    result = mocus(residual, options=opts)
    return [frozenset(c) for c in result.cutsets]


# ----------------------------------------------------------------------
# Compiled tree representation
# ----------------------------------------------------------------------


@dataclass
class _Compiled:
    """Bitmask view of the tree under the chosen root."""

    event_names: list[str]
    probability: list[float]
    gate_names: list[str]
    root_bit: int
    #: Per gate bit: list of (event mask, gate mask) expansion branches.
    branches: list[list[tuple[int, int]]]
    #: Per gate bit: number of branches (for the expansion heuristic).
    branch_counts: list[int]


def _compile(tree: FaultTree, root: str) -> _Compiled:
    reachable_gates = sorted(tree.gates_under(root))
    reachable_events = sorted(tree.events_under(root))
    event_bit = {name: i for i, name in enumerate(reachable_events)}
    gate_bit = {name: i for i, name in enumerate(reachable_gates)}
    probability = [tree.events[name].probability for name in reachable_events]

    branches: list[list[tuple[int, int]]] = []
    branch_counts: list[int] = []
    for name in reachable_gates:
        gate = tree.gates[name]
        raw: list[tuple[str, ...]]
        if gate.gate_type is GateType.AND:
            raw = [gate.children]
        elif gate.gate_type is GateType.OR:
            raw = [(child,) for child in gate.children]
        else:
            assert gate.k is not None
            raw = list(itertools.combinations(gate.children, gate.k))
        masks: list[tuple[int, int]] = []
        for branch in raw:
            events_mask = 0
            gates_mask = 0
            for child in branch:
                if child in event_bit:
                    events_mask |= 1 << event_bit[child]
                else:
                    gates_mask |= 1 << gate_bit[child]
            masks.append((events_mask, gates_mask))
        branches.append(masks)
        branch_counts.append(len(masks))
    return _Compiled(
        reachable_events,
        probability,
        reachable_gates,
        gate_bit[root],
        branches,
        branch_counts,
    )


def _pick_gate_bit(compiled: _Compiled, gates: int) -> int:
    """The pending gate with the fewest branches (AND gates first)."""
    best_bit = -1
    best_count = -1
    bits = gates
    while bits:
        low = bits & -bits
        bit = low.bit_length() - 1
        count = compiled.branch_counts[bit]
        if count == 1:
            return bit
        if best_count < 0 or count < best_count:
            best_count = count
            best_bit = bit
        bits ^= low
    return best_bit


def _mask_to_names(compiled: _Compiled, mask: int) -> frozenset[str]:
    names = []
    while mask:
        low = mask & -mask
        names.append(compiled.event_names[low.bit_length() - 1])
        mask ^= low
    return frozenset(names)


def _mask_to_gate_names(compiled: _Compiled, mask: int) -> list[str]:
    names = []
    while mask:
        low = mask & -mask
        names.append(compiled.gate_names[low.bit_length() - 1])
        mask ^= low
    return sorted(names)


def _names_to_mask(compiled: _Compiled, names: Iterable[str], gates: bool) -> int:
    """Rebuild a bitmask from checkpointed names (resume path).

    Bit assignment is deterministic (sorted reachable names), so a
    snapshot from the same tree round-trips exactly; unknown names mean
    the tree changed and resuming would be unsound.
    """
    table = compiled.gate_names if gates else compiled.event_names
    bit_of = {name: i for i, name in enumerate(table)}
    mask = 0
    for name in names:
        try:
            mask |= 1 << bit_of[name]
        except KeyError:
            raise UnknownNodeError(
                f"cannot resume MOCUS: {name!r} is not a "
                f"{'gate' if gates else 'basic event'} of this tree"
            ) from None
    return mask
