"""Discrete solution containers and the damped-Newton driver shared by the solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import DidNotConverge


@dataclass
class RingSolution:
    """A converged PDE solution on a convex ring.

    kind="radial": values, u_prime and u_second are samples of u, u' and u''
    on the uniform radius grid ``r`` of an n-dimensional radially symmetric
    problem on [a, b].

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
    u_second: np.ndarray | None = None
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


def _damped_newton(evaluate, linearize, solve, u, tol, row_l1, max_iter, name, picard_steps=0):
    """The nonlinear iteration of every solver; returns (u, residual norm, meta).

    ``evaluate(u)`` returns (interior residual, state),
    ``linearize(residual, state, frozen)`` the linear system built from that
    same evaluation and ``solve(system)`` its interior correction, so each
    iterate is evaluated once and its state is dropped before the solve.
    The solve stops at the first iterate whose max-norm residual is at most
    ``tol_used = max(tol, 32 eps (1 + max|u|) row_l1(state))``, its rounding
    floor, read at the start and after each accepted step; ``row_l1`` is the
    largest row l1 norm of the frozen operator.  The first ``picard_steps``
    steps are frozen and taken at full length; every later step is halved up
    to 8 times until the residual decreases.  At most ``max_iter`` steps are
    taken, Picard ones included.  ``meta`` holds ``tol``, the last ``tol_used``
    and, per step, its phase, the residual norm after it and its length.
    """
    def tolerance(u, state):
        floor = 32.0 * np.finfo(float).eps * (1.0 + np.max(np.abs(u))) * row_l1(state)
        return float(max(tol, floor))

    res, state = evaluate(u)
    meta = {"tol": tol, "tol_used": tolerance(u, state),
            "phases": [], "residual_norms": [], "step_lengths": []}
    norm = float(np.max(np.abs(res), initial=0.0))
    while norm > meta["tol_used"]:
        iterations = len(meta["phases"])
        picard = iterations < picard_steps
        if iterations >= max_iter:
            raise DidNotConverge(f"{name} stalled at residual {norm:.3e} (tol_used "
                                 f"{meta['tol_used']:.3e})", iterations=iterations, residual=norm)
        # the evaluated state lives until its system is built, the system until it is solved
        system, state = linearize(res, state, picard), None
        delta, system = solve(system), None
        step = 1.0
        for _ in range(8):
            trial = u.copy()
            trial[1:-1] += step * delta
            res, state = evaluate(trial)
            trial_norm = float(np.max(np.abs(res), initial=0.0))
            if picard or trial_norm < norm:
                break
            step *= 0.5
        else:
            raise DidNotConverge(f"{name} line search failed at residual {norm:.3e} (tol_used "
                                 f"{meta['tol_used']:.3e})", iterations=iterations, residual=norm)
        u, norm = trial, trial_norm
        meta["tol_used"] = tolerance(u, state)
        meta["phases"].append("picard" if picard else "newton")
        meta["residual_norms"].append(norm)
        meta["step_lengths"].append(step)
    return u, norm, meta
