"""Radial solvers on annuli a < r < b for any dimension n >= 2.

The minimal surface equation reduces to a first integral: r^(n-1) u' /
sqrt(1 + u'^2) is a constant c, so u'(r) = c / sqrt(r^(2(n-1)) - c^2) and the
boundary data pin c through one scalar quadrature equation, solved here by
bisection.  Graph solutions exist only for |c| < a^(n-1); data steeper than
that is reported as NoSolution, a legitimate outcome rather than a failure.
The solution carries u' and u'' of that closed form, and u from the same
quadrature rule as the flux equation.

The semilinear equation u'' + (n-1) u'/r = f(x, u) is solved on a
second-order central-difference discretization by the damped-Newton driver the
2D ring solver shares (``solution._damped_newton``), with a tridiagonal step;
its u' and u'' are the difference stencils of the converged u.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NoSolution
from .fields import RadialMinimalField
from .ring2d import MINIMAL, SemilinearEquation, second_difference
from .solution import RingSolution, _damped_newton

_FLUX_EDGE = 1.0 - 1e-12
_GAUSS_NODES = 16  # Gauss-Legendre nodes per panel
_PANEL_WIDTH = 0.75  # widest panel in tau; the integrand is analytic within 0.57 of the real axis


@functools.cache
def _gauss_legendre() -> tuple:
    """Nodes on [0, 1] and weights summing to 1, built on first use; read-only, as
    every caller shares them."""
    nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    rule = 0.5 * (nodes + 1.0), 0.5 * weights
    for a in rule:
        a.flags.writeable = False
    return rule


def _flux_scales(c: float, n: int, r0: float, r_last: float) -> tuple:
    """(r0 - s0, s0, d) for the integrals of ``_tau_integrals`` over [r0, r_last].

    s0 = |c|^(1/(n-1)) is where the integrand is root-singular; it must not
    exceed r0 (ValueError otherwise; OverflowError when r_last^m is not a
    finite float).  r0 - s0 comes from the ratio of |c| to the limit r0^(n-1),
    so it keeps its digits as s0 -> r0.
    """
    m = 2 * (n - 1)
    if not math.isfinite(float(r_last) ** m):  # float ** raises OverflowError past the range
        raise OverflowError(f"s^{m} is not finite at s = {float(r_last):g}")
    gap = -r0 * math.expm1(math.log(abs(c) / r0 ** (n - 1)) / (n - 1))
    if gap < 0.0:
        raise ValueError(f"|flux| {abs(c):g} exceeds the limit {r0 ** (n - 1):g}")
    s0 = r0 - gap
    return gap, s0, math.sqrt(2.0 * s0 * math.sin(math.pi / m))


def _tau_integrals(c: float, n: int, s0: float, d: float, start: np.ndarray,
                   width: np.ndarray) -> np.ndarray:
    """integral_{r_i}^{r_(i+1)} c / sqrt(s^m - c^2) ds, m = 2(n-1), given as the
    interval [start_i, start_i + width_i] in tau.

    With s = s0 + sigma^2, s^m - c^2 = sigma^2 P(s) for the positive
    P(s) = sum_{k<m} s^k s0^(m-1-k), so the integral is that of 2c / sqrt(P)
    d sigma, smooth up to the flux limit.  P vanishes at the other m-th roots
    of c^2, the nearest at |sigma| = d = sqrt(2 s0 sin(pi/m)) and all at an
    angle of at least pi/4 to the real axis; after sigma = d sinh(tau) they lie
    at least 0.57 from the real tau axis.  So every interval is cut into the
    same number of equal panels, enough for the widest to be at most
    ``_PANEL_WIDTH``, each integrated by a fixed Gauss-Legendre rule.
    """
    m = 2 * (n - 1)
    panels = max(1, math.ceil(float(width.max()) / _PANEL_WIDTH))
    nodes, weights = _gauss_legendre()
    if panels > 1:
        nodes = ((np.arange(panels)[:, None] + nodes) / panels).ravel()
        weights = np.tile(weights / panels, panels)
    tau = start[:, None] + width[:, None] * nodes
    s = s0 + (d * np.sinh(tau)) ** 2
    p = s + s0
    for j in range(2, m):  # P by Horner's rule
        p = p * s + s0**j
    return (2.0 * c * d) * ((np.cosh(tau) / np.sqrt(p)) @ weights) * width


def _profile_increments(c: float, n: int, r: np.ndarray) -> np.ndarray:
    """integral_{r_i}^{r_(i+1)} c / sqrt(s^(2(n-1)) - c^2) ds for ascending radii r_i."""
    gap, s0, d = _flux_scales(c, n, r[0], r[-1])
    sigma = np.sqrt((r - r[0]) + gap)
    root = np.hypot(d, sigma)
    # the tau width asinh(sigma_(i+1)/d) - asinh(sigma_i/d), without the cancellation
    # of the difference on a short interval; profile_integral repeats it on floats
    width = np.arcsinh(np.diff(r) / (sigma[1:] * root[:-1] + sigma[:-1] * root[1:]))
    return _tau_integrals(c, n, s0, d, np.arcsinh(sigma[:-1] / d), width)


def profile_integral(c: float, n: int, a: float, b: float) -> float:
    """integral_a^b c / sqrt(s^(2(n-1)) - c^2) ds for |c| <= a^(n-1).

    Fixed Gauss-Legendre panels after the substitutions of ``_tau_integrals``,
    which leave no singular integrand, so the rule holds its accuracy up to the
    flux limit |c| = a^(n-1).  OverflowError when b^(2(n-1)) is not a finite
    float.  The interval is set up on floats, as the flux bisection calls this
    some fifty times per solve.
    """
    if c == 0.0 or a == b:
        return 0.0
    gap, s0, d = _flux_scales(c, n, a, b)
    sigma_a, sigma_b = math.sqrt(gap), math.sqrt((b - a) + gap)
    root_a, root_b = math.hypot(d, sigma_a), math.hypot(d, sigma_b)
    width = math.asinh((b - a) / (sigma_b * root_a + sigma_a * root_b))
    start = math.asinh(sigma_a / d)
    return float(_tau_integrals(c, n, s0, d, np.array([start]), np.array([width]))[0])


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
    data, then samples u (the same quadrature rule over each sample interval,
    summed by one cumulative sum), u' and u'' (closed form).
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

    u = np.full_like(r, u_a)
    if c != 0.0:
        u[1:] += np.cumsum(_profile_increments(c, n, r))

    # pointwise residual of div(grad u / sqrt(1 + |grad u|^2)) in radial form
    w3 = (1.0 + u_prime**2) ** 1.5
    residual = ((n - 1) * u_prime * (1.0 + u_prime**2) / r + u_second) / w3
    res_norm = float(np.max(np.abs(residual)))

    return RingSolution(
        kind="radial",
        equation=MINIMAL,
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

    def jacobian(uv: np.ndarray) -> np.ndarray:
        # row planes (lower, diagonal, upper): the couplings of row i to u_(i-1), u_i, u_(i+1)
        planes = np.empty((3, samples - 2))
        planes[0], planes[1], planes[2] = lower, -2.0 / h**2 - rhs.f_u(x[1:-1], uv[1:-1]), upper
        return planes

    def solve(planes: np.ndarray, target: np.ndarray, frozen: bool) -> tuple:
        ab = np.zeros_like(planes)
        ab[0, 1:], ab[1], ab[2, :-1] = planes[2, :-1], planes[1], planes[0, 1:]
        return (solve_banded((1, 1), ab, target),)

    u = u_a + (u_b - u_a) * (r - a) / (b - a)
    u, res_norm, meta = _damped_newton(residual, jacobian, solve, u, tol, max_iter, "radial Newton")

    u_prime = np.gradient(u, r, edge_order=2)
    u_prime[2:-2] = (u[:-4] - 8.0 * u[1:-3] + 8.0 * u[3:-1] - u[4:]) / (12.0 * h)
    # u'' from the stencils of u, not from the equation, so checks measure u
    u_second = second_difference(u, h)
    return RingSolution(
        kind="radial",
        equation=SemilinearEquation(rhs),
        values=u,
        residual_norm=res_norm,
        h=h,
        iterations=len(meta["phases"]),
        n=n,
        a=a,
        b=b,
        r=r,
        u_prime=u_prime,
        u_second=u_second,
        flux=None,
        meta=meta,
    )
