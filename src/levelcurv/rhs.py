"""Semilinear right-hand sides f(x, u) and their structure flags.

The theorems hypothesize structure (nonnegativity, monotonicity in u,
convexity of t^3 f(x)); since f is user-supplied code those flags are
verified by dense sampling, never trusted, and reports mark them as sampled.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields

import numpy as np

FLAG_TOL = 1e-12
# the sampling behind the structure flags: u over [0, 1], the range of the
# rings' 0/1 boundary data, at 1000 seeded points, and 200 points for t^3 f
FLAG_U_RANGE = (0.0, 1.0)
FLAG_SAMPLES = 1000
FLAG_SEED = 0
FLAG_CONVEXITY_POINTS = 200


@dataclass(frozen=True)
class RHSFlags:
    nonnegative: bool
    f_of_u_only: bool
    f_of_x_only: bool
    f_u_nonneg: bool
    f_u_nonpos: bool
    f0_zero: bool
    t3f_convex: bool

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}


@dataclass(frozen=True)
class SemilinearRHS:
    """f and its u-derivative, both vectorized over (points, values)."""

    name: str
    f: object  # callable (x: (m, n), u: (m,)) -> (m,)
    f_u: object

    def __repr__(self):
        return f"SemilinearRHS({self.name})"


def zero_rhs() -> SemilinearRHS:
    return SemilinearRHS(
        name="zero",
        f=lambda x, u: np.zeros_like(np.asarray(u, dtype=float)),
        f_u=lambda x, u: np.zeros_like(np.asarray(u, dtype=float)),
    )


def linear_u_rhs(scale: float = 1.0) -> SemilinearRHS:
    return SemilinearRHS(
        name=f"linear-u:{scale:g}",
        f=lambda x, u: scale * np.asarray(u, dtype=float),
        f_u=lambda x, u: np.full_like(np.asarray(u, dtype=float), scale),
    )


def inverse_square_rhs(shift: float = 2.0) -> SemilinearRHS:
    """f(x) = (shift + x_0)^-2: f^(-1/2) is linear, so t^3 f(x) is convex."""

    def f(x, u):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return (shift + x[:, 0]) ** -2.0

    def f_u(x, u):
        return np.zeros_like(np.asarray(u, dtype=float))

    return SemilinearRHS(name=f"inverse-square:{shift:g}", f=f, f_u=f_u)


def admissibility_check(rhs: SemilinearRHS, box: np.ndarray) -> RHSFlags:
    """Sample f and f_u over box x ``FLAG_U_RANGE`` and fill the structure flags.

    box has shape (n, 2) of [lo, hi] per coordinate.  The t^3 f(x) convexity
    flag samples the (x, t)-Hessian of t^3 f at random points and tests
    positive semidefiniteness; the x-derivatives of f come from central
    differences, so that test uses an FD-scaled tolerance rather than 1e-12.
    """
    box = np.asarray(box, dtype=float)
    n = box.shape[0]
    rng = np.random.default_rng(FLAG_SEED)
    x = rng.uniform(box[:, 0], box[:, 1], size=(FLAG_SAMPLES, n))
    u = rng.uniform(FLAG_U_RANGE[0], FLAG_U_RANGE[1], size=FLAG_SAMPLES)
    fv = np.asarray(rhs.f(x, u), dtype=float)
    fuv = np.asarray(rhs.f_u(x, u), dtype=float)

    nonnegative = bool(np.min(fv) >= -FLAG_TOL)
    f_u_nonneg = bool(np.min(fuv) >= -FLAG_TOL)
    f_u_nonpos = bool(np.max(fuv) <= FLAG_TOL)
    f0_zero = bool(np.max(np.abs(rhs.f(x, np.zeros(FLAG_SAMPLES)))) <= FLAG_TOL)

    # dependence flags: shuffle one argument, hold the other
    x_alt = rng.uniform(box[:, 0], box[:, 1], size=(FLAG_SAMPLES, n))
    u_alt = rng.uniform(FLAG_U_RANGE[0], FLAG_U_RANGE[1], size=FLAG_SAMPLES)
    scale = 1.0 + float(np.max(np.abs(fv)))
    f_of_u_only = bool(
        np.max(np.abs(np.asarray(rhs.f(x_alt, u)) - fv)) <= FLAG_TOL * scale
    )
    f_of_x_only = bool(
        np.max(np.abs(np.asarray(rhs.f(x, u_alt)) - fv)) <= FLAG_TOL * scale
    )

    t3f_convex = _t3f_convex_sampled(rhs, box, rng)
    return RHSFlags(
        nonnegative=nonnegative,
        f_of_u_only=f_of_u_only,
        f_of_x_only=f_of_x_only,
        f_u_nonneg=f_u_nonneg,
        f_u_nonpos=f_u_nonpos,
        f0_zero=f0_zero,
        t3f_convex=t3f_convex,
    )


def _t3f_convex_sampled(rhs: SemilinearRHS, box: np.ndarray, rng) -> bool:
    n, points = box.shape[0], FLAG_CONVEXITY_POINTS
    widths = box[:, 1] - box[:, 0]
    h = 1e-4 * float(np.max(widths))
    # keep stencils inside the box
    lo = box[:, 0] + 2 * h
    hi = box[:, 1] - 2 * h
    if np.any(hi <= lo):
        return False
    xs = rng.uniform(lo, hi, size=(points, n))
    ts = rng.uniform(0.1, 3.0, size=points)
    zeros = np.zeros(points)

    def f_at(pts):
        return np.asarray(rhs.f(pts, zeros), dtype=float)

    f0 = f_at(xs)
    if np.any(f0 <= 0.0):
        return False  # the equivalence with concave f^(-1/2) needs f > 0
    grad = np.zeros((points, n))
    hess_x = np.zeros((points, n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        fp, fm = f_at(xs + e), f_at(xs - e)
        grad[:, i] = (fp - fm) / (2 * h)
        hess_x[:, i, i] = (fp - 2 * f0 + fm) / h**2
        for j in range(i + 1, n):
            e2 = np.zeros(n)
            e2[j] = h
            fpp = f_at(xs + e + e2)
            fpm = f_at(xs + e - e2)
            fmp = f_at(xs - e + e2)
            fmm = f_at(xs - e - e2)
            val = (fpp - fpm - fmp + fmm) / (4 * h**2)
            hess_x[:, i, j] = hess_x[:, j, i] = val
    # Hessian of g(x, t) = t^3 f(x) at every sample, one (n+1) x (n+1) block each
    tol = -1e-6 * (1.0 + float(np.max(np.abs(f0))))
    g = np.zeros((points, n + 1, n + 1))
    g[:, :n, :n] = ts[:, None, None] ** 3 * hess_x
    g[:, :n, n] = g[:, n, :n] = 3 * ts[:, None] ** 2 * grad
    g[:, n, n] = 6 * ts * f0
    return not np.any(np.linalg.eigvalsh(g)[:, 0] < tol * np.maximum(1.0, ts**3))
