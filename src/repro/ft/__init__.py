"""Static fault trees: model, cutset generation, probability, importance.

This subpackage is the static substrate of the SD fault-tree analysis
(paper, Sections II and IV): the DAG model itself, scenario semantics,
MOCUS cutset generation with a probabilistic cutoff, the standard
probability aggregations (on :class:`CutSetList`), importance measures
and common-cause-failure expansion.
"""

from repro.ft.builder import FaultTreeBuilder
from repro.ft.cutsets import CutSetList, cutset_probability, minimize
from repro.ft.importance import importance, rank_by_fussell_vesely
from repro.ft.mocus import MocusOptions, MocusResult, mocus
from repro.ft.tree import BasicEvent, FaultTree, Gate, GateType

__all__ = [
    "BasicEvent",
    "CutSetList",
    "FaultTree",
    "FaultTreeBuilder",
    "Gate",
    "GateType",
    "MocusOptions",
    "MocusResult",
    "cutset_probability",
    "importance",
    "minimize",
    "mocus",
    "rank_by_fussell_vesely",
]
