"""Post-run analysis of reuse-timer interactions.

The paper's core discovery is *causal*: updates triggered by route reuse
at one router recharge damping penalties (and postpone reuse timers) at
other routers. :mod:`repro.analysis.causality` reads that causal
structure off a run's trace DAG — attributing every charge and
reuse-timer postponement to the origin flap, reuse expiry or injected
fault its chain starts from, and ranking the reuse expiries by how many
other reuse timers they postponed.
"""

from repro.analysis.causality import (
    AfterShock,
    CausalityReport,
    analyze_trace,
    causal_chain,
)
from repro.analysis.distance import DistanceBucket, convergence_by_distance
from repro.analysis.invariants import (
    InvariantReport,
    InvariantViolation,
    check_converged_invariants,
)
from repro.analysis.sensitivity import (
    SensitivityPoint,
    evaluate_params,
    sweep_parameter,
    tolerance_frontier,
)

__all__ = [
    "AfterShock",
    "CausalityReport",
    "DistanceBucket",
    "InvariantReport",
    "InvariantViolation",
    "check_converged_invariants",
    "SensitivityPoint",
    "analyze_trace",
    "causal_chain",
    "convergence_by_distance",
    "evaluate_params",
    "sweep_parameter",
    "tolerance_frontier",
]
