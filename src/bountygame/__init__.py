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

import importlib

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
# Eager: the function shadows its module, which a lazy load could leave bound here.
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

# Names loaded on first access, so the scalar commands skip their modules.
_LAZY = dict.fromkeys(
    ("RatioEquilibrium", "RatioSensitivities", "ratio_sensitivities", "solve_ratio_equilibrium"),
    "ratio_game",
) | dict.fromkeys(
    ("FeasibleSampler", "PropositionReport", "SampledScenario", "identity_suite",
     "run_full_suite", "verify_proposition_1", "verify_proposition_2", "verify_proposition_3"),
    "verification",
)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
