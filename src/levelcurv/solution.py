"""Discrete solution containers and the damped-Newton driver shared by the solvers."""

from __future__ import annotations

import math
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

    equation is the ``ring2d`` equation value solved; it carries f as ``equation.rhs``.
    residual_norm is the max-norm discrete equation residual actually achieved;
    h is the representative grid spacing used to scale check tolerances.
    """

    kind: str
    equation: Any
    values: np.ndarray
    residual_norm: float
    h: float
    iterations: int = 0
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

    def boundary_values(self) -> tuple[np.ndarray, np.ndarray]:
        """(outer, inner) Dirichlet rows."""
        if self.kind == "radial":
            return np.array([self.values[-1]]), np.array([self.values[0]])
        return self.values[0, :].copy(), self.values[-1, :].copy()

    def max_principle_violation(self) -> float:
        """How far interior values exceed the boundary range (0 when clean)."""
        interior, bdry = self.values[1:-1], self.values[[0, -1]]
        over = float(np.max(interior) - np.max(bdry))
        under = float(np.min(bdry) - np.min(interior))
        return max(0.0, over, under)


def _damped_newton(evaluate, jacobian, solve, u, tol, max_iter, name, picard_steps=0,
                   newton=None, details=()):
    """The nonlinear iteration of every solver; returns (u, residual norm, meta).

    ``evaluate(u)`` returns (interior residual, state) and ``jacobian(state)``
    the frozen Jacobian there as row planes (``planes[:, i]`` holds row i),
    built once per accepted iterate.  Its rounding floor is read off them: the
    solve stops at the first iterate whose max-norm residual is at most
    ``tol_used = max(tol, 32 eps (1 + max|u|) max_i sum |planes[:, i]|)``.
    The step from it solves with them, ``solve(planes, -residual, frozen)``
    returning the interior correction, or None when the linear step failed,
    and one value per name in ``details`` for ``meta``; only a Newton step of
    a solver that gives ``newton(state)`` builds its own planes, after the
    frozen ones are released.  The first ``picard_steps`` steps are frozen and
    taken at full length; every later step is halved up to 8 times until the
    residual decreases.  At most ``max_iter`` steps are taken, Picard ones
    included; a stall, a failed linear step or line search and a residual norm
    or floor that is not finite raise DidNotConverge.  ``meta`` holds ``tol``,
    the last ``tol_used`` and, per step, its phase, the residual norm after it
    and its length.
    """
    meta = {"tol": tol, "tol_used": None, "phases": [], "residual_norms": [], "step_lengths": [],
            **{key: [] for key in details}}
    res, state = evaluate(u)
    norm = float(np.max(np.abs(res), initial=0.0))
    while True:
        iterations = len(meta["phases"])
        planes = jacobian(state)
        # the row sums accumulate plane by plane, as the planes are still to be solved with
        floor = (32.0 * np.finfo(float).eps * (1.0 + np.max(np.abs(u)))
                 * float(sum(np.abs(plane) for plane in planes).max()))
        meta["tol_used"] = float(max(tol, floor))
        if not (math.isfinite(norm) and math.isfinite(floor)):
            raise DidNotConverge(f"{name} residual {norm:.3e} or its rounding floor {floor:.3e} "
                                 "is not finite", iterations=iterations, residual=norm)
        if norm <= meta["tol_used"]:
            return u, norm, meta
        if iterations >= max_iter:
            raise DidNotConverge(f"{name} stalled at residual {norm:.3e} (tol_used "
                                 f"{meta['tol_used']:.3e})", iterations=iterations, residual=norm)
        picard = iterations < picard_steps
        if not picard and newton is not None:
            planes = None  # released before the Newton planes are built
            planes = newton(state)
        # the evaluated state lives until the step's planes are built, the planes until solved
        state = None
        delta, *detail = solve(planes, -res.ravel(), picard)
        if delta is None:
            counts = ", ".join(f"{key} {value}" for key, value in zip(details, detail))
            raise DidNotConverge(f"{name} linear step failed ({counts}) at residual {norm:.3e} "
                                 f"(tol_used {meta['tol_used']:.3e})", iterations=iterations,
                                 residual=norm)
        delta, planes = delta.reshape(res.shape), None
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
        meta["phases"].append("picard" if picard else "newton")
        meta["residual_norms"].append(norm)
        meta["step_lengths"].append(step)
        for key, value in zip(details, detail):
            meta[key].append(value)
