"""Performance layer: dedup + parallel execution of cutset solves.

The paper's decomposition turns one intractable product-chain analysis
into thousands of *independent* small per-cutset solves (Section V-C) —
a shape that parallelises and deduplicates embarrassingly well.  This
package supplies the mechanisms; :mod:`repro.core.analyzer` is the
policy layer that threads them through the pipeline:

* :mod:`repro.perf.fingerprint` — content-based structural signatures
  of chains and per-cutset models, valid across processes;
* :mod:`repro.perf.schedule` — order unique solves largest-first to
  minimise process-pool tail latency, and pack them into balanced
  batches so one IPC round-trip amortises many solves;
* :mod:`repro.perf.pool` — the process-pool solver farm with picklable
  task/result types, per-task fault capture, batched dispatch over a
  warm persistent pool, and a fork-inherited shared model table;
* :mod:`repro.perf.cache` — the persistent on-disk solve cache keyed
  by the fingerprint content hashes, making re-analysis of an
  unchanged model near-free.
"""

from repro.perf.cache import SolveCache, default_cache_dir, tree_digest
from repro.perf.fingerprint import model_signature
from repro.perf.pool import (
    SolveResult,
    SolveTask,
    SolverFarm,
    resolve_jobs,
    shutdown_warm_farm,
    solve_batch,
    solve_task,
    warm_farm,
)
from repro.perf.schedule import (
    estimate_chain_states,
    order_largest_first,
    plan_batches,
)

__all__ = [
    "SolveCache",
    "SolveResult",
    "SolveTask",
    "SolverFarm",
    "default_cache_dir",
    "estimate_chain_states",
    "model_signature",
    "order_largest_first",
    "plan_batches",
    "resolve_jobs",
    "shutdown_warm_farm",
    "solve_batch",
    "solve_task",
    "tree_digest",
    "warm_farm",
]
