"""Memory floor of the MOCUS search on the BWR study.

The search records every enqueued partial cutset for deduplication,
which makes that record the largest transient allocation of a MOCUS
search.  The traced (``tracemalloc``) peak of the benchmark's 1-phase
BWR search at cutoff 1e-15 reads 28.0 MiB with a map from each gate
mask to its event masks and 42.1 MiB with an ``(events, gates)`` tuple
per state; the floor sits between them.
"""

import tracemalloc

from repro.core.to_static import to_static
from repro.ft.mocus import MocusOptions, mocus

#: Ceiling on the traced peak of the 1-phase BWR search, in MiB.
MAX_PEAK_MIB = 30.0


def test_bwr_search_peak_stays_under_floor(bwr_study):
    tree = to_static(bwr_study, 24.0).tree
    tracemalloc.start()
    try:
        result = mocus(tree, MocusOptions(cutoff=1e-15))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.cutsets) == 3981
    assert peak / 2**20 <= MAX_PEAK_MIB
