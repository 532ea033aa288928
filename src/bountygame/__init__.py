"""Numerical engine for a two-stage bug-bounty market game.

Hackers race to find a severe and a non-severe bug in a product the
vendor has released; the vendor moves first by picking the release time
and the two bounty levels. The package computes the hacker-stage
equilibrium efforts and first-discovery probabilities in closed form,
optimizes the vendor stage, cross-checks every formula against
brute-force oracles and a Monte Carlo simulator, and ships a seeded
verification suite over randomly drawn feasible markets.
"""

from __future__ import annotations

from .errors import (
    AssumptionViolationError,
    ConvergenceError,
    DomainError,
    FeasibilityWarning,
    InfeasibleScenarioError,
)
from .hackers import (
    EffortProfile,
    HackerType,
    Regime,
    SuccessProfile,
    best_response_oracle,
    corner_equilibrium,
    equilibrium,
    focal_payoff,
    interior_equilibrium,
    select_regime,
    success_probabilities,
)
from .ratio_game import (
    RatioEquilibrium,
    RatioSensitivities,
    ratio_sensitivities,
    solve_ratio_equilibrium,
)
from .scenario import (
    MarketParams,
    ReleaseCurves,
    ValidationReport,
    VendorDecision,
    k_nonsevere,
    k_severe,
    revenue,
    validate,
)
from .simulate import SimMode, SimOutcome, simulate
from .vendor import (
    BbpRelease,
    Condition1Bounds,
    OptimalBounties,
    ProfitBreakdown,
    ReleaseOptimum,
    WhhCountReport,
    concentrated_bbp_profit,
    condition1,
    optimal_bounties,
    optimal_release_no_bbp,
    optimal_release_with_bbp,
    optimal_whh_count,
    profit_decomposition_check,
    profit_with_bbp,
    profit_without_bbp,
    release_gap_term,
)
from .verification import (
    FeasibleSampler,
    PropositionReport,
    SampledScenario,
    identity_suite,
    run_full_suite,
    verify_proposition_1,
    verify_proposition_2,
    verify_proposition_3,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolationError",
    "BbpRelease",
    "Condition1Bounds",
    "ConvergenceError",
    "DomainError",
    "EffortProfile",
    "FeasibilityWarning",
    "FeasibleSampler",
    "HackerType",
    "InfeasibleScenarioError",
    "MarketParams",
    "OptimalBounties",
    "ProfitBreakdown",
    "PropositionReport",
    "RatioEquilibrium",
    "RatioSensitivities",
    "Regime",
    "ReleaseCurves",
    "ReleaseOptimum",
    "SampledScenario",
    "SimMode",
    "SimOutcome",
    "SuccessProfile",
    "ValidationReport",
    "VendorDecision",
    "WhhCountReport",
    "best_response_oracle",
    "concentrated_bbp_profit",
    "condition1",
    "corner_equilibrium",
    "equilibrium",
    "focal_payoff",
    "identity_suite",
    "interior_equilibrium",
    "k_nonsevere",
    "k_severe",
    "optimal_bounties",
    "optimal_release_no_bbp",
    "optimal_release_with_bbp",
    "optimal_whh_count",
    "profit_decomposition_check",
    "profit_with_bbp",
    "profit_without_bbp",
    "ratio_sensitivities",
    "release_gap_term",
    "revenue",
    "run_full_suite",
    "select_regime",
    "simulate",
    "solve_ratio_equilibrium",
    "success_probabilities",
    "validate",
    "verify_proposition_1",
    "verify_proposition_2",
    "verify_proposition_3",
    "__version__",
]
