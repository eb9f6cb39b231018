"""The exact MOCUS search on the BWR study, pinned count for count.

The search's dedup keys, subsumption kernel and expansion order are
free to change only as long as they explore the very same states: all
six :class:`~repro.ft.mocus.MocusStats` counters and a digest of the
complete minimal family (``full_cutsets``) are pinned here for the
benchmark's BWR model (all trigger stages, repair rate 0.05, horizon
24 h, cutoff 1e-15) with one and three Erlang phases, and for the
``TRANSIENT::CD`` module subtree the what-if engine's modular path
searches on its own.
"""

import hashlib
import json
from dataclasses import astuple

import pytest

from repro.core.to_static import to_static
from repro.ft.mocus import MocusOptions, mocus
from repro.models.bwr import TRIGGER_STAGES, BwrConfig, build_bwr

CUTOFF = 1e-15

#: label -> (phases, top gate or None for the tree's own top,
#: MocusStats as (expanded, cut off, deduplicated, subsumed, completed,
#: minimal), served cutsets, sha256 prefix of ``full_cutsets``).
REFERENCE = {
    "1-phase": (
        1, None, (201641, 199680, 2556, 80049, 18223, 3987), 3981,
        "b7829a07b46c1da8",
    ),
    "1-phase TRANSIENT::CD": (
        1, "TRANSIENT::CD", (262859, 170750, 4136, 173297, 51694, 4635),
        4635, "ae037f993bc25eec",
    ),
    "3-phase": (
        3, None, (80168, 86148, 1115, 23941, 4134, 2926), 2920,
        "a378d736d48b7774",
    ),
}


def family_digest(family) -> str:
    payload = json.dumps([list(cutset) for cutset in family])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def bwr_static_tree(phases: int):
    config = BwrConfig(phases=phases, repair_rate=0.05, triggers=TRIGGER_STAGES)
    return to_static(build_bwr(config), 24.0).tree


@pytest.mark.parametrize("label", sorted(REFERENCE))
def test_bwr_search_matches_reference(label):
    phases, top, stats, served, digest = REFERENCE[label]
    tree = bwr_static_tree(phases)
    if top is not None:
        tree = tree.subtree(top)
    result = mocus(tree, MocusOptions(cutoff=CUTOFF))
    assert astuple(result.stats) == stats
    assert len(result.cutsets) == served
    assert family_digest(result.full_cutsets) == digest
