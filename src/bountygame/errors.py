"""Exception types shared across the package."""

__all__ = [
    "DomainError",
    "ConvergenceError",
    "InfeasibleScenarioError",
    "AssumptionViolationError",
    "FeasibilityWarning",
]


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge."""


class InfeasibleScenarioError(RuntimeError):
    """The scenario violates a feasibility requirement of the operation."""


class AssumptionViolationError(RuntimeError):
    """A sign or positivity assumption of a closed form does not hold."""


class FeasibilityWarning(UserWarning):
    """A result was computed outside the regime its formulas assume."""
