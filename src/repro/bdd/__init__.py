"""Reduced ordered BDDs and exact fault-tree analysis built on them.

The exact counterpart of the MOCUS pipeline: compile a coherent fault
tree into a BDD, read off the exact top-event probability, extract the
exact minimal cutsets.  This is the *production* quantifier for
trigger-free fault trees
(:func:`~repro.bdd.quantify.quantify_static_tree`, with cutset
aggregation as the fallback when the node budget trips), as well as the
exact oracle behind the differential cross-checks and the cutset-engine
ablation benchmark.
"""

from repro.bdd.engine import FALSE, TRUE, BddManager
from repro.bdd.equiv import (
    compile_into,
    is_monotone,
    non_monotone_variables,
    trees_equivalent,
    union_variables,
)
from repro.bdd.ft_bdd import CompiledTree, compile_tree, exact_mcs, exact_probability
from repro.bdd.ordering import ORDERINGS, depth_order, dfs_order, weight_order
from repro.bdd.quantify import BddQuantification, quantify_static_tree

__all__ = [
    "FALSE",
    "ORDERINGS",
    "TRUE",
    "BddManager",
    "BddQuantification",
    "CompiledTree",
    "compile_into",
    "compile_tree",
    "depth_order",
    "dfs_order",
    "exact_mcs",
    "exact_probability",
    "is_monotone",
    "non_monotone_variables",
    "quantify_static_tree",
    "trees_equivalent",
    "union_variables",
]
