"""Continuous-time Markov chains: models, builders, transient analysis.

The dynamic substrate of the SD fault-tree analysis: plain and triggered
CTMCs (paper, Section III-A), the standard failure-model builders of the
experiments, and transient/first-passage solvers.

The exact product-chain semantics and the Monte-Carlo simulator live in
:mod:`repro.ctmc.product` and :mod:`repro.ctmc.simulate`; import those
submodules directly (they depend on :mod:`repro.core.sdft`, and keeping
them out of this namespace avoids an import cycle at package load).
"""

from repro.ctmc.analysis import (
    eventual_failure_probability,
    expected_downtime,
    mean_time_to_failure,
)
from repro.ctmc.builders import (
    erlang_failure,
    exponential_failure,
    repairable,
    static_chain,
    triggered_erlang,
    triggered_repairable,
)
from repro.ctmc.chain import Ctmc
from repro.ctmc.phase_type import PhaseFit, fit_failure_distribution
from repro.ctmc.transient import (
    failure_probability,
    occupancy_integrals,
    reach_probability,
    steady_state,
    transient_distribution,
)
from repro.ctmc.triggered import TriggeredCtmc

__all__ = [
    "Ctmc",
    "PhaseFit",
    "TriggeredCtmc",
    "erlang_failure",
    "eventual_failure_probability",
    "expected_downtime",
    "exponential_failure",
    "failure_probability",
    "fit_failure_distribution",
    "mean_time_to_failure",
    "occupancy_integrals",
    "reach_probability",
    "repairable",
    "static_chain",
    "steady_state",
    "transient_distribution",
    "triggered_erlang",
    "triggered_repairable",
]
