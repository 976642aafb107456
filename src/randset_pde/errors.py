"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2,
numerical failures (CG non-convergence, a transport step too long for its
reaction) with 3, and coefficient/speed/material bound violations with 4.
"""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(ValueError):
    """Invalid scenario configuration. ``problems`` lists every violation."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class NumericalError(RuntimeError):
    """A numerical procedure failed (bracket loss, divergence, ...)."""


class NonConvergenceError(NumericalError):
    """An iterative solver hit its iteration cap.

    Carries the last residual / sup-norm change so callers can report it.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class PropagationRunError(NumericalError):
    """Too many per-sample model failures during a propagation run."""

    def __init__(self, message, failures=()):
        super().__init__(message)
        self.failures = tuple(failures)


class BoundViolationError(ValueError):
    """A coefficient left the bounds required for well-posedness."""


class CoefficientBoundError(BoundViolationError):
    """An elliptic coefficient is nonpositive or below its declared floor."""


class SpeedBoundError(BoundViolationError):
    """A transport speed exceeded the declared uniform global bound."""


class MaterialError(BoundViolationError):
    """Density or elastic modulus is nonpositive at an evaluation point."""


class StepSizeError(ValueError):
    """A discretization step is too coarse for the requested operation."""


class EmptyRegionError(ValueError):
    """The requested domain of determinacy is empty (kappa <= c*T)."""


class ComparisonError(ValueError):
    """Random-set and parametric results were not built compatibly."""
