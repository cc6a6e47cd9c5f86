"""Exception hierarchy shared by every module of the toolkit.

Solver failures (DidNotConverge, NoSolution) are deliberately distinct from
check-precondition failures (HypothesisViolated): the former are numerical
outcomes, the latter mean a verdict must not be read off the run at all.
"""


class LevelCurvError(Exception):
    """Base class for all toolkit errors."""


class GradientTooSmall(LevelCurvError):
    """|grad u| fell below the 1e-8 floor; the theorems assume |grad u| != 0."""


class DegenerateChart(LevelCurvError):
    """u_n = 0 in the requested chart; caller must re-chart or align first."""


class NonpositiveCurvature(LevelCurvError):
    """log K requested with K <= 0."""


class OutOfDomain(LevelCurvError):
    """Point or parameter outside the closed-form domain (e.g. catenoid r <= 1)."""


class ExhaustedResampling(LevelCurvError):
    """Random field generator failed to hit a nondegenerate sample."""


class InvalidInstance(LevelCurvError):
    """Quadratic-bound instance violates lambda >= 0 or b_i > 0."""


class NotAMinimalJet(LevelCurvError):
    """Supplied jet does not satisfy the minimal surface equation at the point."""


class NoSolution(LevelCurvError):
    """Radial minimal-surface data too steep for a graph solution."""


class DidNotConverge(LevelCurvError):
    """Iteration cap reached; numerical failure, not a theorem violation."""

    def __init__(self, message: str, iterations: int = 0, residual: float = float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class TooCloseToBoundary(LevelCurvError):
    """A derivative stencil would reach past the grid boundary."""


class HypothesisViolated(LevelCurvError):
    """A theorem-check precondition failed (non-convex level set, bad flags, ...)."""


class TooCoarse(LevelCurvError):
    """Grid has too few interior layers for a meaningful boundary comparison."""


class ConfigError(LevelCurvError):
    """Run configuration rejected (unknown key, bad value, non-finite number)."""
