"""Radial solvers on annuli a < r < b for any dimension n >= 2.

The minimal surface equation reduces to a first integral: r^(n-1) u' /
sqrt(1 + u'^2) is a constant c, so u'(r) = c / sqrt(r^(2(n-1)) - c^2) and the
boundary data pin c through one scalar quadrature equation, solved here by
bisection.  Graph solutions exist only for |c| < a^(n-1); data steeper than
that is reported as NoSolution, a legitimate outcome rather than a failure.
The solution carries u' and u'' of that closed form.

The semilinear equation u'' + (n-1) u'/r = f(x, u) is solved on a
second-order central-difference discretization by the damped-Newton driver the
2D ring solver shares (``solution._damped_newton``), with a tridiagonal step;
its u' and u'' are the difference stencils of the converged u.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import NoSolution
from .fields import RadialMinimalField
from .ring2d import second_difference
from .solution import RingSolution, _damped_newton

_QUAD_TOL = 1e-12
_FLUX_EDGE = 1.0 - 1e-12


def profile_integral(c: float, n: int, a: float, b: float) -> float:
    """integral_a^b c / sqrt(s^(2(n-1)) - c^2) ds (adaptive quadrature)."""
    if c == 0.0:
        return 0.0
    # imported here, like every scipy import of the package, so that only the runs
    # that call it pay for it: scipy.integrate loads scipy.optimize and scipy.special
    from scipy.integrate import IntegrationWarning, quad

    m = 2 * (n - 1)
    with warnings.catch_warnings():
        # near the flux limit the integrand is root-singular at s = a; the
        # feasibility probe only needs a few digits there
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(
            lambda s: c / math.sqrt(s**m - c * c),
            a,
            b,
            epsabs=_QUAD_TOL,
            epsrel=_QUAD_TOL,
            limit=200,
        )
    return float(val)


def solve_minimal_radial(
    n: int,
    a: float,
    b: float,
    u_a: float,
    u_b: float,
    samples: int = 401,
) -> RingSolution:
    """Radial minimal-surface profile with u(a) = u_a, u(b) = u_b.

    Finds the flux constant by bisection so the profile integral matches the
    data, then samples u (panelwise Gauss quadrature), u' and u'' (closed form).
    ``meta`` records the number of bisection steps and the final bracket
    [lo, hi] of |flux| (both 0 when the data jump is 0).
    """
    if not (0.0 < a < b):
        raise ValueError(f"need 0 < a < b, got a={a:g}, b={b:g}")
    if n < 2:
        raise ValueError("minimal radial solver needs n >= 2")
    delta = u_b - u_a
    c_max = a ** (n - 1)
    lo = hi = 0.0
    bisections = 0
    if delta == 0.0:
        c = 0.0
    else:
        target = abs(delta)
        hi = c_max * _FLUX_EDGE
        reachable = profile_integral(hi, n, a, b)
        if reachable < target:
            raise NoSolution(
                f"boundary jump {target:g} exceeds the steepest radial graph "
                f"({reachable:g}); no graph solution on [{a:g}, {b:g}]"
            )
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:  # adjacent floats: the bracket cannot move
                break
            bisections += 1
            if profile_integral(mid, n, a, b) < target:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-16 * c_max:
                break
        c = math.copysign(0.5 * (lo + hi), delta)

    r = np.linspace(a, b, samples)
    profile = RadialMinimalField(n, c)
    u_prime, u_second = profile.u_prime(r), profile.u_second(r)

    # cumulative profile by fixed Gauss-Legendre panels (integrand is smooth)
    u = np.full_like(r, u_a)
    if c != 0.0:
        nodes, weights = np.polynomial.legendre.leggauss(12)
        mid, half = 0.5 * (r[1:] + r[:-1]), 0.5 * (r[1:] - r[:-1])
        panels = profile.u_prime(mid[:, None] + half[:, None] * nodes)
        for i in range(samples - 1):
            u[i + 1] = u[i] + half[i] * float(weights @ panels[i])

    # pointwise residual of div(grad u / sqrt(1 + |grad u|^2)) in radial form
    w3 = (1.0 + u_prime**2) ** 1.5
    residual = ((n - 1) * u_prime * (1.0 + u_prime**2) / r + u_second) / w3
    res_norm = float(np.max(np.abs(residual)))

    return RingSolution(
        kind="radial",
        equation="minimal",
        values=u,
        residual_norm=res_norm,
        h=float(r[1] - r[0]),
        iterations=0,
        n=n,
        a=a,
        b=b,
        r=r,
        u_prime=u_prime,
        u_second=u_second,
        flux=c,
        meta={"bisections": bisections, "flux_bracket": [lo, hi]},
    )


def solve_semilinear_radial(
    n: int,
    a: float,
    b: float,
    u_a: float,
    u_b: float,
    rhs,
    samples: int = 401,
    tol: float = 1e-10,
    max_iter: int = 30,
) -> RingSolution:
    """Damped Newton for u'' + (n-1) u'/r = f(x, u), u(a) = u_a, u(b) = u_b.

    f is evaluated at x = r e_1; radially nonsymmetric right-hand sides belong
    to the 2D solver.
    """
    from scipy.linalg import solve_banded

    if not (0.0 < a < b):
        raise ValueError(f"need 0 < a < b, got a={a:g}, b={b:g}")
    r = np.linspace(a, b, samples)
    h = float(r[1] - r[0])
    x = np.zeros((samples, n))
    x[:, 0] = r
    lower = 1.0 / h**2 - (n - 1) / (2.0 * h * r[1:-1])
    upper = 1.0 / h**2 + (n - 1) / (2.0 * h * r[1:-1])

    def residual(uv: np.ndarray) -> tuple:
        f_vals = rhs.f(x[1:-1], uv[1:-1])
        return (
            (uv[2:] - 2.0 * uv[1:-1] + uv[:-2]) / h**2
            + (n - 1) / r[1:-1] * (uv[2:] - uv[:-2]) / (2.0 * h)
            - f_vals
        ), uv

    def linearize(res: np.ndarray, uv: np.ndarray, frozen: bool) -> tuple:
        ab = np.zeros((3, samples - 2))
        ab[0, 1:] = upper[:-1]
        ab[1, :] = -2.0 / h**2 - rhs.f_u(x[1:-1], uv[1:-1])
        ab[2, :-1] = lower[1:]
        return ab, -res

    # rounding floor of the discrete operator: the residual cannot be driven
    # below ~eps * |u| / h^2 in double precision on fine grids
    u_scale = 1.0 + max(abs(u_a), abs(u_b))
    floor = 32.0 * np.finfo(float).eps * u_scale * (4.0 / h**2 + (n - 1) / (h * a))
    u = u_a + (u_b - u_a) * (r - a) / (b - a)
    u, res_norm, meta = _damped_newton(
        residual, linearize, lambda system: solve_banded((1, 1), *system), u, tol,
        lambda _: floor, max_iter, "radial Newton")

    u_prime = np.gradient(u, r, edge_order=2)
    u_prime[2:-2] = (u[:-4] - 8.0 * u[1:-3] + 8.0 * u[3:-1] - u[4:]) / (12.0 * h)
    # u'' from the stencils of u, not from the equation, so checks measure u
    u_second = second_difference(u, h)
    return RingSolution(
        kind="radial",
        equation="semilinear",
        values=u,
        residual_norm=res_norm,
        h=h,
        iterations=len(meta["phases"]),
        rhs=rhs,
        n=n,
        a=a,
        b=b,
        r=r,
        u_prime=u_prime,
        u_second=u_second,
        flux=None,
        meta=meta,
    )
