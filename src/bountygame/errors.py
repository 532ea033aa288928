"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge.

    Carries the last iterate and residuals so the failing case can be
    reproduced and inspected.
    """

    def __init__(self, message, last_iterate=None, residuals=None, iterations=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residuals = residuals
        self.iterations = iterations


class InfeasibleScenarioError(RuntimeError):
    """The scenario violates a feasibility requirement of the operation."""


class AssumptionViolationError(RuntimeError):
    """A sign or positivity assumption of a closed form does not hold."""


class FeasibilityWarning(UserWarning):
    """A result was computed outside the regime its formulas assume."""
