"""Discrete solution containers shared by the solvers, checks and reporting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np


@dataclass
class RingSolution:
    """A converged PDE solution on a convex ring.

    kind="radial": values/u_prime are samples on the uniform radius grid ``r``
    of an n-dimensional radially symmetric problem on [a, b].

    kind="ring2d": values has shape (N_s, N_t) on the boundary-fitted grid of
    ``domain`` (s=0 the outer curve, s=1 the inner curve, t periodic).

    residual_norm is the max-norm discrete equation residual actually achieved;
    h is the representative grid spacing used to scale check tolerances.
    """

    kind: str
    equation: str
    values: np.ndarray
    residual_norm: float
    h: float
    iterations: int = 0
    rhs: Any = None
    # radial fields
    n: int | None = None
    a: float | None = None
    b: float | None = None
    r: np.ndarray | None = None
    u_prime: np.ndarray | None = None
    flux: float | None = None
    # 2D fields
    domain: Any = None
    coords: np.ndarray | None = None  # (N_s, N_t, 2) physical nodes
    grid: Any = field(default=None, repr=False, compare=False)  # the solver's RingGrid
    meta: dict = field(default_factory=dict)
    # the checks' field bundle of this solution (checks.solution_fields), built once
    _fields: Any = field(default=None, init=False, repr=False, compare=False)

    @property
    def shape(self) -> tuple:
        return self.values.shape

    def boundary_values(self) -> tuple[np.ndarray, np.ndarray]:
        """(outer, inner) Dirichlet rows."""
        if self.kind == "radial":
            return np.array([self.values[-1]]), np.array([self.values[0]])
        return self.values[0, :].copy(), self.values[-1, :].copy()

    def max_principle_violation(self) -> float:
        """How far interior values exceed the boundary range (0 when clean)."""
        if self.kind == "radial":
            interior = self.values[1:-1]
            bdry = self.values[[0, -1]]
        else:
            interior = self.values[1:-1, :]
            bdry = np.concatenate([self.values[0, :], self.values[-1, :]])
        over = float(np.max(interior) - np.max(bdry))
        under = float(np.min(bdry) - np.min(interior))
        return max(0.0, over, under)
