"""The product Markov chain ``C_FT`` of an SD fault tree (Section III-C).

Each product state records the local state of every basic event.  The
chain evolves by single-event transitions (parallel interleaving of the
per-event chains); after every evolution the state is *updated* — every
triggered event whose triggering-gate status disagrees with its on/off
mode is switched — until a consistent state is reached.  Acyclicity of
the triggering structure guarantees the update loop terminates.

This is the exact semantics of SD fault trees.  It is exponential in the
number of basic events (the paper's motivation: ``2^2500`` states for a
real PSA model), so it serves as the ground truth for small models and
as the baseline in the decomposition-crossover ablation; the scalable
per-cutset analysis lives in :mod:`repro.core.quantify`.

The semantics runs on integer codes.  :class:`SdSemantics` compiles a
model once into tables: every local state of an event becomes a small
int (its index in the event's chain; ``ok``/``fail`` are ``0``/``1``),
a product state becomes a tuple of codes, and the failed basic events
of a state become one int bitmask (bit ``i`` for the ``i``-th event of
``order``).  Each dynamic event gets a move table ``code -> ((dest,
rate, flip), ...)`` whose ``flip`` is the change of its failed bit, so a
move updates the mask without re-reading the state.  Gates are a
bottom-up program over the same bitmask — child mask and threshold
(AND needs every child, OR one, ATLEAST ``k``) tested as ``(status &
mask).bit_count() >= need`` — and each triggered event has on/off switch
tables.  :func:`build_product` and the Monte-Carlo kernel of
:mod:`repro.ctmc.simulate` both explore on these codes; labels are
decoded once per state, for the :class:`~repro.ctmc.chain.Ctmc` that
comes out, which is label-for-label the chain the label semantics
defines.  The label-tuple methods (:meth:`SdSemantics.gate_status`,
:meth:`~SdSemantics.make_consistent`, ...) encode, run the same core
and decode.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable

from repro.ctmc.chain import Ctmc
from repro.errors import AnalysisError, ChainTooLargeError
from repro.ft.tree import GateType

__all__ = ["SdSemantics", "ProductChain", "build_product"]

LocalState = Hashable
ProductState = tuple  # tuple of LocalState, ordered like SdSemantics.order
CodedState = tuple  # tuple of int codes, ordered like SdSemantics.order

#: One enabled evolution of a coded state:
#: ``(event name, event position, target, target failed mask, rate)``.
Move = tuple[str, int, CodedState, int, float]


class SdSemantics:
    """The exact SD semantics of one model, compiled to integer tables.

    Both the explicit product construction and the Monte-Carlo simulator
    are built on it.  The tables:

    * ``labels[i][code]`` / ``codes[i][label]`` — the local states of the
      ``i``-th event of :attr:`order` and their codes;
    * ``failed_bits[i][code]`` — ``1 << i`` if that local state is
      failed, else ``0``;
    * one move table per dynamic event, in ``sdft.dynamic_events`` ×
      ``chain.successors`` order;
    * one ``(position, gate bit, on table, off table, failed bits)``
      switch per triggered event, sorted by event name;
    * the gate program ``(gate bit, child mask, need)`` in bottom-up
      order over a status bitmask whose low bits are the events' failed
      bits and whose high bits are the gates'.
    """

    def __init__(self, sdft) -> None:
        self.sdft = sdft
        #: Fixed order of basic events defining product-state tuples.
        self.order: tuple[str, ...] = tuple(sorted(sdft.all_event_names))
        self.position: dict[str, int] = {n: i for i, n in enumerate(self.order)}

        labels: list[tuple[LocalState, ...]] = []
        failed_bits: list[tuple[int, ...]] = []
        for i, name in enumerate(self.order):
            if sdft.is_static(name):
                local_states: tuple = ("ok", "fail")
                failed: frozenset = frozenset(["fail"])
            else:
                chain = sdft.chain_of(name)
                local_states, failed = chain.states, chain.failed
            labels.append(local_states)
            failed_bits.append(
                tuple((1 << i) if s in failed else 0 for s in local_states)
            )
        self.labels: tuple[tuple[LocalState, ...], ...] = tuple(labels)
        self.codes: tuple[dict[LocalState, int], ...] = tuple(
            {s: c for c, s in enumerate(states)} for states in labels
        )
        self.failed_bits: tuple[tuple[int, ...], ...] = tuple(failed_bits)

        self._moves: list[tuple[str, int, list, bool]] = []
        for name in sdft.dynamic_events:
            i = self.position[name]
            chain = sdft.chain_of(name)
            codes, bits = self.codes[i], self.failed_bits[i]
            table: list[list] = [[] for _ in chain.states]
            for (source, destination), rate in chain.rates.items():
                c, d = codes[source], codes[destination]
                table[c].append((d, rate, bits[c] ^ bits[d]))
            triggered = name in sdft.trigger_of
            self._moves.append(
                (name, i, [tuple(moves) for moves in table], triggered)
            )

        node_bits = dict(self.position)
        self._program: list[tuple[int, int, int]] = []
        for gate in sdft.structure.gates_bottom_up():
            node_bits[gate.name] = len(node_bits)
            children = 0
            for child in gate.children:
                children |= 1 << node_bits[child]
            if gate.gate_type is GateType.AND:
                need = len(gate.children)
            elif gate.gate_type is GateType.OR:
                need = 1
            else:
                assert gate.k is not None
                need = gate.k
            self._program.append((1 << node_bits[gate.name], children, need))
        self._node_bits = node_bits
        self._top_bit = 1 << node_bits[sdft.top]

        self._switches: list[tuple[int, int, tuple, tuple, tuple]] = []
        for name in sorted(sdft.trigger_of):
            i = self.position[name]
            chain = sdft.chain_of(name)
            codes = self.codes[i]
            on = tuple(codes[chain.apply_trigger(s, True)] for s in chain.states)
            off = tuple(codes[chain.apply_trigger(s, False)] for s in chain.states)
            gate_bit = 1 << node_bits[sdft.trigger_of[name]]
            self._switches.append((i, gate_bit, on, off, self.failed_bits[i]))
        #: Status bitmask per failed-event mask: gates depend on nothing else.
        self._status_of: dict[int, int] = {}

    # ------------------------------------------------------------------
    # The integer core
    # ------------------------------------------------------------------

    def encode(self, state: ProductState) -> CodedState:
        """The code tuple of a label tuple."""
        return tuple(map(dict.__getitem__, self.codes, state))

    def decode(self, state: CodedState) -> ProductState:
        """The label tuple of a code tuple."""
        return tuple(map(tuple.__getitem__, self.labels, state))

    def failed_mask(self, state: CodedState) -> int:
        """Bitmask of the events in a failed local state."""
        mask = 0
        for bits, code in zip(self.failed_bits, state):
            mask |= bits[code]
        return mask

    def status(self, mask: int) -> int:
        """Failure status of every node, as a bitmask, given the failed events.

        Runs the gate program bottom-up (triggers disregarded, Section
        III-C1).  Gate status depends on the failed-event mask alone, so
        each mask is evaluated once per model.
        """
        status = self._status_of.get(mask)
        if status is None:
            status = mask
            for gate_bit, children, need in self._program:
                if (status & children).bit_count() >= need:
                    status |= gate_bit
            self._status_of[mask] = status
        return status

    def fails(self, mask: int) -> bool:
        """Whether the failed events of ``mask`` fail the top gate."""
        return bool(self.status(mask) & self._top_bit)

    def settle(self, state: list[int], mask: int) -> int:
        """Apply trigger updates to ``state`` in place; return its final mask.

        Each pass computes the status once and updates every triggered
        event against it; a pass that switches nothing ends the loop.
        A state is consistent when every triggered event is on iff its
        triggering gate is failed.  Acyclic triggering bounds the number
        of passes by the number of triggered events.
        """
        switches = self._switches
        if not switches:
            return mask
        for _ in range(len(switches) + 1):
            status = self.status(mask)
            changed = False
            for i, gate_bit, on, off, bits in switches:
                code = state[i]
                updated = (on if status & gate_bit else off)[code]
                if updated != code:
                    state[i] = updated
                    mask ^= bits[code] ^ bits[updated]
                    changed = True
            if not changed:
                return mask
        raise AnalysisError(
            "trigger updates did not converge; the triggering structure "
            "should have been rejected as cyclic"
        )

    def successors(self, state: CodedState, mask: int) -> list[Move]:
        """Every enabled evolution of a consistent state, updates applied.

        Ordered by ``sdft.dynamic_events`` and, within an event, by its
        chain's rates; a target may equal ``state`` when the updates
        undo the move.  A move of an untriggered event that changes no
        failed bit leaves the status, hence every trigger, as it was in
        the consistent ``state``: its target needs no update pass.
        """
        moves: list[Move] = []
        settle = self.settle
        for name, i, table, triggered in self._moves:
            for destination, rate, flip in table[state[i]]:
                moved = list(state)
                moved[i] = destination
                if flip or triggered:
                    target_mask = settle(moved, mask ^ flip)
                else:
                    target_mask = mask
                moves.append((name, i, tuple(moved), target_mask, rate))
        return moves

    def min_initial_states(self) -> int:
        """A lower bound on the number of consistent initial states.

        The product of the initial support sizes of the static and
        untriggered dynamic events: the update loop rewrites only
        triggered events, so distinct combinations of the others stay
        distinct states.  Costs one pass over the events, where
        :meth:`initial` walks every combination.
        """
        sizes = []
        for name in self.order:
            if self.sdft.is_static(name):
                p = self.sdft.static_events[name].probability
                sizes.append(2 if 0.0 < p < 1.0 else 1)
            elif name not in self.sdft.trigger_of:
                sizes.append(len(self.sdft.chain_of(name).initial))
        return math.prod(sizes)

    def initial(self) -> list[tuple[CodedState, int, float]]:
        """Consistent initial states as ``(codes, mask, probability)``.

        Enumerates the product of the per-event initial supports (static
        events contribute ``ok``/``fail``), pushes each through the
        update loop, and accumulates probability on the resulting
        consistent states (Section III-C1, initial distribution).
        Ordered by the ``str`` of the decoded labels.
        """
        supports: list[list[tuple[int, float]]] = []
        for i, name in enumerate(self.order):
            if self.sdft.is_static(name):
                p = self.sdft.static_events[name].probability
                entries = []
                if p < 1.0:
                    entries.append((0, 1.0 - p))
                if p > 0.0:
                    entries.append((1, p))
                supports.append(entries)
            else:
                chain = self.sdft.chain_of(name)
                supports.append(
                    [
                        (self.codes[i][local], p)
                        for local, p in sorted(
                            chain.initial.items(), key=lambda x: str(x[0])
                        )
                    ]
                )
        accumulated: dict[CodedState, float] = {}
        masks: dict[CodedState, int] = {}
        for combo in itertools.product(*supports):
            state = [code for code, _ in combo]
            probability = 1.0
            for _, p in combo:
                probability *= p
            mask = self.settle(state, self.failed_mask(state))
            consistent = tuple(state)
            accumulated[consistent] = accumulated.get(consistent, 0.0) + probability
            masks[consistent] = mask
        ordered = sorted(accumulated.items(), key=lambda kv: str(self.decode(kv[0])))
        return [(state, masks[state], p) for state, p in ordered]

    # ------------------------------------------------------------------
    # Label-tuple views of the core
    # ------------------------------------------------------------------

    def gate_status(self, state: ProductState) -> dict[str, bool]:
        """Failure status of every node under the product state.

        Evaluates the boolean structure over the scenario induced by the
        failed local states, triggers disregarded (Section III-C1).
        """
        status = self.status(self.failed_mask(self.encode(state)))
        return {name: bool(status >> bit & 1) for name, bit in self._node_bits.items()}

    def fails_top(self, state: ProductState) -> bool:
        """Whether the product state fails the top gate."""
        return self.fails(self.failed_mask(self.encode(state)))

    def make_consistent(self, state: ProductState) -> ProductState:
        """Apply trigger updates until the state is consistent."""
        coded = list(self.encode(state))
        self.settle(coded, self.failed_mask(coded))
        return self.decode(coded)

    def is_consistent(self, state: ProductState) -> bool:
        """Whether no trigger update applies to ``state``."""
        return self.make_consistent(state) == state

    def local_transitions(
        self, state: ProductState
    ) -> list[tuple[str, LocalState, float]]:
        """Enabled evolutions: ``(event name, new local state, rate)``."""
        coded = self.encode(state)
        return [
            (name, self.labels[i][destination], rate)
            for name, i, table, _ in self._moves
            for destination, rate, _ in table[coded[i]]
        ]

    def initial_states(self) -> list[tuple[ProductState, float]]:
        """All consistent initial product states with their probabilities."""
        return [(self.decode(state), p) for state, _, p in self.initial()]


@dataclass
class ProductChain:
    """The explicit product CTMC plus its bookkeeping.

    ``transition_events`` attributes each aggregated transition rate to
    the basic event whose local move produced it — two different events'
    evolutions can collapse onto the same consistent target state, and
    flux-attribution analyses (which event completed a cut) need the
    split back.  Only those analyses read it, so it is derived on first
    access by replaying the exploration's moves in exploration order.
    """

    semantics: SdSemantics
    chain: Ctmc
    #: Coded states, aligned with ``chain.states``.
    coded_states: list[CodedState] = field(repr=False)

    @property
    def n_states(self) -> int:
        """Number of (reachable, consistent) product states."""
        return self.chain.n_states

    @cached_property
    def transition_events(
        self,
    ) -> dict[tuple[ProductState, ProductState], dict[str, float]]:
        """``(source, target) -> {event name: rate}``, keyed like ``chain.rates``."""
        semantics = self.semantics
        label = dict(zip(self.coded_states, self.chain.states))
        by_event: dict[tuple[ProductState, ProductState], dict[str, float]] = {}
        for state, source in zip(self.coded_states, self.chain.states):
            mask = semantics.failed_mask(state)
            for name, _, target, _, rate in semantics.successors(state, mask):
                if target == state:
                    continue
                split = by_event.setdefault((source, label[target]), {})
                split[name] = split.get(name, 0.0) + rate
        return by_event


def build_product(sdft, max_states: int = 200_000) -> ProductChain:
    """Construct the reachable part of the product chain ``C_FT``.

    Explores consistent states depth-first from the initial
    distribution; every evolution is followed by the update loop, and
    parallel evolutions that collapse onto the same consistent target
    accumulate their rates.  Raises
    :class:`~repro.errors.ChainTooLargeError` when more than
    ``max_states`` states are reached — the exponential wall this
    package exists to avoid — and before enumerating the initial
    distribution when it alone would exceed the cap.
    """
    semantics = SdSemantics(sdft)
    successors, decode = semantics.successors, semantics.decode
    if semantics.min_initial_states() > max_states:
        raise _too_large(max_states)
    initial = semantics.initial()
    # Per discovered state, by discovery id: codes, failed mask, labels.
    ids: dict[CodedState, int] = {}
    coded: list[CodedState] = []
    masks: list[int] = []
    labels: list[ProductState] = []
    for state, mask, _ in initial:
        ids[state] = len(coded)
        coded.append(state)
        masks.append(mask)
        labels.append(decode(state))
    rates: dict[tuple[int, int], float] = {}
    explored: list[int] = []
    frontier = list(range(len(coded)))
    while frontier:
        sid = frontier.pop()
        explored.append(sid)
        if len(explored) > max_states:
            raise _too_large(max_states)
        for _, _, target, target_mask, rate in successors(coded[sid], masks[sid]):
            tid = ids.get(target)
            if tid is None:
                tid = ids[target] = len(coded)
                coded.append(target)
                masks.append(target_mask)
                labels.append(decode(target))
                frontier.append(tid)
            elif tid == sid:
                continue
            key = (sid, tid)
            rates[key] = rates.get(key, 0.0) + rate
    fails = semantics.fails
    chain = Ctmc(
        [labels[i] for i in explored],
        {labels[i]: p for i, (_, _, p) in enumerate(initial)},
        {(labels[a], labels[b]): r for (a, b), r in rates.items()},
        [labels[i] for i in explored if fails(masks[i])],
    )
    return ProductChain(semantics, chain, [coded[i] for i in explored])


def _too_large(max_states: int) -> ChainTooLargeError:
    return ChainTooLargeError(
        f"product chain exceeds max_states={max_states}; use the "
        f"per-cutset analysis (repro.core.analyzer) instead"
    )
