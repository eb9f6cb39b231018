"""Content-based signatures of per-cutset quantification problems.

A signature identifies everything the reachability probability of an
``FT_C`` model depends on: the gate structure, the dynamic events with
their chain *contents* (:meth:`repro.ctmc.chain.Ctmc.fingerprint`), the
static guards with probabilities, the trigger edges and the horizon.

Unlike the historical ``id(chain)`` keys, these signatures are stable
across processes and recognise structurally-identical chains built
separately — which makes them usable both for the in-process
quantification cache (:class:`repro.core.quantify.QuantificationCache`)
and for the cross-process dedup of the solver farm
(:class:`repro.core.analyzer._Farm`).
"""

from __future__ import annotations

__all__ = ["model_signature"]


def model_signature(model, horizon: float) -> tuple:
    """A hashable key identifying one quantification problem.

    ``model`` is the :class:`~repro.core.sdft.SdFaultTree` of a cutset's
    ``FT_C``; identical keys guarantee identical reachability
    probabilities, so a solve may be shared between all cutsets whose
    models produce the same signature.
    """
    gates = tuple(
        (g.name, g.gate_type.value, g.children, g.k)
        for g in sorted(model.gates.values(), key=lambda g: g.name)
    )
    dynamic = tuple(
        (name, event.chain.fingerprint())
        for name, event in sorted(model.dynamic_events.items())
    )
    static = tuple(
        (name, event.probability)
        for name, event in sorted(model.static_events.items())
    )
    triggers = tuple(sorted((g, tuple(e)) for g, e in model.triggers.items()))
    return (gates, dynamic, static, triggers, horizon)
