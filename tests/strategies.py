"""Hypothesis strategies shared by the oracle-based tests.

The central strategy builds small random coherent fault trees (AND, OR
and ATLEAST gates over up to ~10 events) so algorithm results can be
checked against brute-force enumeration of all scenarios.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.ft.tree import BasicEvent, FaultTree, Gate, GateType


@st.composite
def fault_trees(
    draw,
    max_events: int = 8,
    max_gates: int = 8,
    allow_atleast: bool = True,
    min_probability: float = 0.0,
    max_probability: float = 1.0,
):
    """A random small coherent fault tree.

    Gates are built bottom-up: gate ``i`` may reference any event and
    any earlier gate, which guarantees a DAG; the last gate is the top,
    wired to reference every otherwise-unused node so the whole tree is
    reachable (unreachable parts would be dead weight in oracle tests).
    """
    n_events = draw(st.integers(2, max_events))
    n_gates = draw(st.integers(1, max_gates))
    events = []
    for i in range(n_events):
        probability = draw(
            st.floats(
                min_probability,
                max_probability,
                allow_nan=False,
                allow_infinity=False,
            )
        )
        events.append(BasicEvent(f"e{i}", probability))

    gate_types = [GateType.AND, GateType.OR]
    if allow_atleast:
        gate_types.append(GateType.ATLEAST)

    gates: list[Gate] = []
    used: set[str] = set()
    for i in range(n_gates):
        pool = [e.name for e in events] + [g.name for g in gates]
        is_top = i == n_gates - 1
        n_children = draw(st.integers(1 if not is_top else 2, min(4, len(pool))))
        children = draw(
            st.lists(
                st.sampled_from(pool),
                min_size=n_children,
                max_size=n_children,
                unique=True,
            )
        )
        if is_top:
            # Wire unused nodes in so everything is reachable.
            unused = [n for n in pool if n not in used and n not in children]
            children = list(children) + unused
        gate_type = draw(st.sampled_from(gate_types))
        k = None
        if gate_type is GateType.ATLEAST:
            if len(children) < 2:
                gate_type = GateType.OR
            else:
                k = draw(st.integers(1, len(children)))
                if k == 1:
                    gate_type = GateType.OR
                    k = None
                elif k == len(children):
                    gate_type = GateType.AND
                    k = None
        gates.append(Gate(f"g{i}", gate_type, tuple(children), k))
        used.update(children)
    return FaultTree(gates[-1].name, events, gates, name="random")


@st.composite
def sd_fault_trees(
    draw,
    max_static: int = 3,
    max_dynamic: int = 4,
    max_gates: int = 5,
    max_rate: float = 0.2,
    tree_shaped: bool = False,
):
    """A random small SD fault tree with a valid triggering structure.

    Dynamic events get repairable chains; a subset becomes triggered.
    Trigger sources are chosen among gates built *before* the dependency
    could become cyclic: event ``d_i`` may only be triggered by a gate
    whose subtree contains no event ``d_j`` with ``j >= i`` — a simple
    stratification that guarantees the acyclicity requirement.

    By default the top gate references every node, so no gate below it
    is a module.  ``tree_shaped=True`` instead feeds every event and
    gate into exactly one parent, which makes every gate a module (the
    shape the what-if engine's modular path decomposes).
    """
    from repro.core.sdft import SdFaultTreeBuilder
    from repro.ctmc.builders import repairable, triggered_repairable

    n_static = draw(st.integers(1, max_static))
    n_dynamic = draw(st.integers(1, max_dynamic))
    n_gates = draw(st.integers(2 if tree_shaped else 1, max_gates))

    b = SdFaultTreeBuilder("random-sd")
    static_names = []
    for i in range(n_static):
        probability = draw(st.floats(0.001, 0.3, allow_nan=False))
        name = f"s{i}"
        b.static_event(name, probability)
        static_names.append(name)

    dynamic_names = []
    triggered_flags = []
    for i in range(n_dynamic):
        rate = draw(st.floats(0.005, max_rate, allow_nan=False))
        repair = draw(st.floats(0.05, 1.0, allow_nan=False))
        name = f"d{i}"
        is_triggered = i > 0 and draw(st.booleans())
        if is_triggered:
            b.dynamic_event(name, triggered_repairable(rate, repair))
        else:
            b.dynamic_event(name, repairable(rate, repair))
        dynamic_names.append(name)
        triggered_flags.append(is_triggered)

    # Gates over events and earlier gates; track, per gate, the highest
    # dynamic index in its subtree (for safe trigger selection).
    gate_names: list[str] = []
    max_dyn_under: dict[str, int] = {}
    for name in static_names:
        max_dyn_under[name] = -1
    for i, name in enumerate(dynamic_names):
        max_dyn_under[name] = i
    used: set[str] = set()
    for g in range(n_gates):
        pool = static_names + dynamic_names + gate_names
        if tree_shaped:
            pool = [n for n in pool if n not in used]
        is_top = g == n_gates - 1 or (tree_shaped and len(pool) <= 2)
        if tree_shaped and is_top:
            children = pool
        else:
            # A tree-shaped inner gate leaves at least two parentless
            # nodes (itself and one more) for the top gate.
            limit = len(pool) - 1 if tree_shaped else len(pool)
            size = draw(st.integers(2, min(4, limit)))
            children = draw(
                st.lists(
                    st.sampled_from(pool), min_size=size, max_size=size, unique=True
                )
            )
        if is_top and not tree_shaped:
            unused = [n for n in pool if n not in children]
            children = list(children) + unused
        used.update(children)
        gate_type = draw(st.sampled_from(["and", "or"]))
        gate_name = f"g{g}"
        if gate_type == "and":
            b.and_(gate_name, *children)
        else:
            b.or_(gate_name, *children)
        max_dyn_under[gate_name] = max(
            (max_dyn_under[c] for c in children), default=-1
        )
        gate_names.append(gate_name)
        if is_top:
            break

    for i, name in enumerate(dynamic_names):
        if not triggered_flags[i]:
            continue
        candidates = [g for g in gate_names if max_dyn_under[g] < i]
        if not candidates:
            # No safe trigger source: downgrade to an untriggered chain.
            b._dynamic[name] = type(b._dynamic[name])(
                name, repairable(0.01, 0.1), ""
            )
            continue
        b.trigger(draw(st.sampled_from(candidates)), name)
    return b.build(gate_names[-1])


@st.composite
def small_ctmcs(draw, max_states: int = 5, max_rate: float = 2.0):
    """A random small CTMC with at least one failed state."""
    from repro.ctmc.chain import Ctmc

    n = draw(st.integers(2, max_states))
    states = [f"s{i}" for i in range(n)]
    rates = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rate = draw(
                st.one_of(
                    st.just(0.0),
                    st.floats(0.01, max_rate, allow_nan=False),
                )
            )
            if rate > 0.0:
                rates[(states[i], states[j])] = rate
    n_failed = draw(st.integers(1, n - 1))
    failed = states[-n_failed:]
    initial_state = draw(st.sampled_from(states[: n - n_failed]))
    return Ctmc(states, {initial_state: 1.0}, rates, failed)
