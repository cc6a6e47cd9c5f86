"""Boundary-fitted solver for convex rings in the plane.

The ring between two nested star-shaped convex curves is mapped by transfinite
radial blending x(s, t) = (1-s) gamma0(t) + s gamma1(t), s in [0, 1] from the
outer to the inner curve, t periodic.  The blending is linear in s and the
curves are given analytically, so every metric quantity (Jacobian, inverse,
second derivatives of the map) is exact; only u is discretized, with
second-order central differences on the (s, t) grid.

Each equation F^{ab}(grad u) u_ab = f(x, u) is one value that ``solve_ring2d``
takes: ``MINIMAL``, the minimal surface equation with
F = (1 + |grad u|^2) I - grad u grad u^T and f = 0, or
``SemilinearEquation(rhs)``, Delta u = f(x, u) with F = I.  It gives
F's coefficient planes, f, the Newton term and the Picard steps (F frozen) that
precede damped Newton on a cold start; the driver the radial solver shares
(``solution._damped_newton``) runs both.  Curves are ellipses: ``Circle(r)``
is ``Ellipse(r, r)``.

A solve starts from the blend of its boundary data, or from a solution of the
same ring on another grid (``warm_start``; mesh sequencing in the sense of
Knoll & Keyes 2004).  Every grid of a ring shares the transfinite map, so the
same (s, t) is the same physical point: the start is this grid's blend plus the
warm-start solution's deviation from its own blend, interpolated
trigonometrically in t and by 4-point Lagrange in s.  Newton then runs without
Picard steps.  A cold solve of an equation that takes Picard steps first
solves the ring on its quarter grid, when that grid is at least
``NESTED_MIN_GRID``, and warm-starts from it (nested iteration, Brandt 1977);
only if that coarse solve fails does it start from the blend and take the
Picard steps on its own grid.  ``solve_family`` warm-starts each ring from the last.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DidNotConverge
from .rhs import SemilinearRHS, zero_rhs
from .solution import RingSolution, _damped_newton


# ---------------------------------------------------------------------------
# parametric convex curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ellipse:
    rx: float
    ry: float
    center: tuple = (0.0, 0.0)

    def point(self, t: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center)
        return np.stack([self.rx * np.cos(t), self.ry * np.sin(t)], axis=-1) + c

    def d1(self, t: np.ndarray) -> np.ndarray:
        return np.stack([-self.rx * np.sin(t), self.ry * np.cos(t)], axis=-1)

    def d2(self, t: np.ndarray) -> np.ndarray:
        return np.stack([-self.rx * np.cos(t), -self.ry * np.sin(t)], axis=-1)


def Circle(radius: float, center: tuple = (0.0, 0.0)) -> Ellipse:
    """The circle of this radius about ``center``: ``Ellipse(radius, radius, center)``."""
    return Ellipse(radius, radius, center)


MIN_GRID = (4, 8)  # smallest (n_s, n_t) a ring grid may have
NESTED_MIN_GRID = (17, 32)  # smallest quarter grid a cold solve with Picard steps solves first


@dataclass
class RingDomain2D:
    """Convex ring between an outer curve (u side 0) and an inner curve (u side 1).

    Both curves must be star-shaped about ``center`` and the inner curve must
    lie strictly inside the outer one; both conditions are checked by sampling
    at construction time.
    """

    outer: object
    inner: object
    n_s: int
    n_t: int
    center: tuple = (0.0, 0.0)

    def __post_init__(self):
        if self.n_s < MIN_GRID[0] or self.n_t < MIN_GRID[1]:
            raise ValueError(f"grid too small: need n_s >= {MIN_GRID[0]}, n_t >= {MIN_GRID[1]}")
        t = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
        c = np.asarray(self.center)
        profiles = []  # (radii, angles) of each curve, sampled once
        for name, curve in (("outer", self.outer), ("inner", self.inner)):
            p = curve.point(t) - c
            radii = np.linalg.norm(p, axis=-1)
            if np.min(radii) <= 0.0:
                raise ValueError(f"{name} curve passes through the center")
            ang = np.arctan2(p[:, 1], p[:, 0])
            dang = np.diff(np.unwrap(ang))
            if not (np.all(dang > 0.0) or np.all(dang < 0.0)):
                raise ValueError(f"{name} curve is not star-shaped about the center")
            profiles.append((radii, ang))
        (r_out, ang_out), (r_in, ang_in) = profiles
        # compare radial profiles on matched angles
        order_out = np.argsort(ang_out)
        order_in = np.argsort(ang_in)
        gap = np.min(r_out[order_out] - np.interp(
            ang_out[order_out], ang_in[order_in], r_in[order_in], period=2 * math.pi
        ))
        if gap <= 0.0:
            raise ValueError("inner curve is not strictly inside the outer curve")
        self.min_gap = float(gap)


def second_difference(u: np.ndarray, h: float) -> np.ndarray:
    """d^2 u / dx^2 along axis 0 on nodes spaced h: central inside, one-sided
    five-point rows at both ends (left zero on fewer than five nodes)."""
    out = np.zeros_like(u)
    out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
    if u.shape[0] >= 5:
        w = np.array([35.0, -104.0, 114.0, -56.0, 11.0]) / (12.0 * h**2)
        out[0], out[-1] = w @ u[:5], w @ u[::-1][:5]
    return out


# ---------------------------------------------------------------------------
# metric of the transfinite map
# ---------------------------------------------------------------------------

class RingGrid:
    """All exact metric data of the transfinite map on the (s, t) grid.

    The metric is kept as contiguous (n_s, n_t) planes, built once per grid:

    * ``s_x, s_y, t_x, t_y``: the inverse Jacobian, i.e. the physical
      gradients of the reference coordinates s and t;
    * ``g_ss, g_st, g_tt``: the inverse metric grad xi_mu . grad xi_nu;
    * ``s_xx, s_xy, s_yy`` and ``t_xx, t_xy, t_yy``: the physical Hessians of
      s and t, with their traces ``lap_s`` and ``lap_t``.
    """

    def __init__(self, domain: RingDomain2D):
        self.domain = domain
        ns, nt = domain.n_s, domain.n_t
        self.n_s, self.n_t = ns, nt
        self.ds = 1.0 / (ns - 1)
        self.dt = 2.0 * math.pi / nt
        s = np.linspace(0.0, 1.0, ns)[:, None]
        t = np.arange(nt) * self.dt
        g0, g1 = domain.outer.point(t), domain.inner.point(t)
        g0d1, g1d1 = domain.outer.d1(t), domain.inner.d1(t)
        g0d2, g1d2 = domain.outer.d2(t), domain.inner.d2(t)
        self.x = (1.0 - s[..., None]) * g0[None, :, :] + s[..., None] * g1[None, :, :]
        # derivatives of the map per physical component; x_s and x_st do not depend on s
        x_s, y_s = (g1 - g0).T
        x_st, y_st = (g1d1 - g0d1).T
        x_t, y_t = ((1.0 - s) * g0d1[:, k] + s * g1d1[:, k] for k in (0, 1))
        x_tt, y_tt = ((1.0 - s) * g0d2[:, k] + s * g1d2[:, k] for k in (0, 1))

        det = x_s * y_t - x_t * y_s
        if np.min(np.abs(det)) < 1e-12:
            raise ValueError("degenerate transfinite map (zero Jacobian)")
        self.s_x, self.s_y = y_t / det, -x_t / det
        self.t_x, self.t_y = -y_s / det, x_s / det
        self.g_ss = self.s_x * self.s_x + self.s_y * self.s_y
        self.g_st = self.s_x * self.t_x + self.s_y * self.t_y
        self.g_tt = self.t_x * self.t_x + self.t_y * self.t_y

        def coordinate_hessian(xi_x, xi_y):
            # d^2 xi / dx_a dx_b = -grad xi . x_{mu nu} (grad xi_mu)_a (grad xi_nu)_b,
            # where x_st and x_tt are the only nonzero second derivatives of the map
            p = -(xi_x * x_st + xi_y * y_st)
            q = -(xi_x * x_tt + xi_y * y_tt)
            return (2.0 * p * self.s_x * self.t_x + q * self.t_x * self.t_x,
                    p * (self.s_x * self.t_y + self.t_x * self.s_y) + q * self.t_x * self.t_y,
                    2.0 * p * self.s_y * self.t_y + q * self.t_y * self.t_y)

        self.s_xx, self.s_xy, self.s_yy = coordinate_hessian(self.s_x, self.s_y)
        self.t_xx, self.t_xy, self.t_yy = coordinate_hessian(self.t_x, self.t_y)
        self.lap_s = self.s_xx + self.s_yy
        self.lap_t = self.t_xx + self.t_yy

    # -- discrete derivatives of a node field (periodic in t) ----------------

    def d_s(self, u: np.ndarray) -> np.ndarray:
        out = np.empty_like(u)
        out[1:-1] = (u[2:] - u[:-2]) / (2.0 * self.ds)
        out[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * self.ds)
        out[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * self.ds)
        return out

    def d_t(self, u: np.ndarray) -> np.ndarray:
        return (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1)) / (2.0 * self.dt)

    def d_ss(self, u: np.ndarray) -> np.ndarray:
        return second_difference(u, self.ds)

    def d_tt(self, u: np.ndarray) -> np.ndarray:
        return (np.roll(u, -1, axis=1) - 2.0 * u + np.roll(u, 1, axis=1)) / self.dt**2

    # -- physical derivatives, one-sided in s at the two boundary rows ---------

    def gradient_planes(self, us: np.ndarray, ut: np.ndarray) -> tuple:
        """(u_x, u_y) from the reference first derivatives."""
        return self.s_x * us + self.t_x * ut, self.s_y * us + self.t_y * ut

    def hessian_planes(self, us, ut, uss, ust, utt) -> tuple:
        """(u_xx, u_xy, u_yy) from the reference derivatives: the chain rule
        through the inverse Jacobian plus the bend terms."""
        # rows of (u_ss u_st; u_st u_tt) times the inverse Jacobian
        a_x, a_y = uss * self.s_x + ust * self.t_x, uss * self.s_y + ust * self.t_y
        b_x, b_y = ust * self.s_x + utt * self.t_x, ust * self.s_y + utt * self.t_y
        return (self.s_x * a_x + self.t_x * b_x + us * self.s_xx + ut * self.t_xx,
                self.s_x * a_y + self.t_x * b_y + us * self.s_xy + ut * self.t_xy,
                self.s_y * a_y + self.t_y * b_y + us * self.s_yy + ut * self.t_yy)

    def physical_gradient(self, u: np.ndarray) -> np.ndarray:
        """(ns, nt, 2) gradient."""
        return np.stack(self.gradient_planes(self.d_s(u), self.d_t(u)), axis=-1)

    def physical_hessian(self, u: np.ndarray) -> np.ndarray:
        """(ns, nt, 2, 2) Hessian."""
        us, ut = self.d_s(u), self.d_t(u)
        u_xx, u_xy, u_yy = self.hessian_planes(us, ut, self.d_ss(u), self.d_s(ut), self.d_tt(u))
        return np.stack([u_xx, u_xy, u_xy, u_yy], axis=-1).reshape(u.shape + (2, 2))

    def spacing(self) -> float:
        """Representative physical spacing: the largest node-to-node step."""
        dx_s = np.linalg.norm(np.diff(self.x, axis=0), axis=-1)
        dx_t = np.linalg.norm(self.x - np.roll(self.x, 1, axis=1), axis=-1)
        return float(max(dx_s.max(), dx_t.max()))


# ---------------------------------------------------------------------------
# grid transfer
# ---------------------------------------------------------------------------

def _resample_t(u: np.ndarray, n_t: int) -> np.ndarray:
    """The trigonometric interpolant of each periodic row of ``u`` at n_t nodes.

    The spectrum is zero-padded or truncated.  An even source splits its
    Nyquist term between the modes +-m/2, so that coefficient is halved; on an
    even target the modes +-n_t/2 meet in the Nyquist coefficient, which is
    doubled.  On an unchanged grid the two cancel.
    """
    m = u.shape[1]
    c = np.fft.rfft(u, axis=1, norm="forward")
    if m % 2 == 0:
        c[:, m // 2] *= 0.5
    if n_t % 2 == 0 and n_t // 2 < c.shape[1]:
        c[:, n_t // 2] *= 2.0
    return np.fft.irfft(c, n=n_t, axis=1, norm="forward")


def _resample_s(u: np.ndarray, n_s: int) -> np.ndarray:
    """The 4-point Lagrange interpolant of the columns of ``u`` at n_s uniform nodes of [0, 1].

    Each node reads the four source rows around it, shifted inward next to
    the ends, so cubics in s are reproduced and the end rows are copied exactly.
    """
    m = u.shape[0]
    x = np.arange(n_s) * (m - 1) / (n_s - 1)  # target nodes in source row units
    first = np.clip(np.floor(x).astype(int) - 1, 0, m - 4)
    x -= first
    weights = (-(x - 1.0) * (x - 2.0) * (x - 3.0) / 6.0, x * (x - 2.0) * (x - 3.0) / 2.0,
               -x * (x - 1.0) * (x - 3.0) / 2.0, x * (x - 1.0) * (x - 2.0) / 6.0)
    return sum(w[:, None] * u[first + k] for k, w in enumerate(weights))


def _blend(outer_data: np.ndarray, inner_data: np.ndarray, n_s: int) -> np.ndarray:
    """The transfinite blend of the boundary rows over n_s rows: linear in s."""
    s = np.linspace(0.0, 1.0, n_s)[:, None]
    return (1.0 - s) * outer_data[None, :] + s * inner_data[None, :]


def _warm_start_deviation(warm_start: RingSolution, domain: RingDomain2D) -> np.ndarray:
    """The deviation of ``warm_start`` from its own blend, interpolated onto ``domain``'s grid.

    It is zero on both boundary rows, so a start built from it keeps the data.
    """
    src = warm_start.domain
    if warm_start.kind != "ring2d" or (src.outer, src.inner, tuple(src.center)) != (
            domain.outer, domain.inner, tuple(domain.center)):
        raise ValueError("warm start must be a ring2d solution on the same curves and center")
    v = warm_start.values
    deviation = v - _blend(v[0], v[-1], v.shape[0])
    return _resample_s(_resample_t(deviation, domain.n_t), domain.n_s)


# ---------------------------------------------------------------------------
# nonlinear solver
# ---------------------------------------------------------------------------

class MinimalEquation:
    """F = (1 + |grad u|^2) I - grad u grad u^T, f = 0; a cold start takes
    ``picard_steps`` steps with F frozen before Newton adds ``newton_term``.
    ``MINIMAL`` is its one instance."""

    name = "minimal"
    rhs = zero_rhs()
    picard_steps = 5

    def coefficients(self, grid: RingGrid, us: np.ndarray, ut: np.ndarray) -> tuple:
        """(m_ss, m_st, m_tt, n_s, n_t) at the reference gradient (us, ut): with g = grad u,
        q = 1 + |g|^2, G the inverse metric and w = G (us, ut), m = q G - w w^T and
        n_xi = q lap xi - g^T hess(xi) g."""
        w_s, w_t = grid.g_ss * us + grid.g_st * ut, grid.g_st * us + grid.g_tt * ut
        q = 1.0 + us * w_s + ut * w_t
        g_x, g_y = grid.gradient_planes(us, ut)
        xx, xy, yy = g_x * g_x, 2.0 * g_x * g_y, g_y * g_y
        n_s = q * grid.lap_s - (xx * grid.s_xx + xy * grid.s_xy + yy * grid.s_yy)
        n_t = q * grid.lap_t - (xx * grid.t_xx + xy * grid.t_xy + yy * grid.t_yy)
        return (q * grid.g_ss - w_s * w_s, 2.0 * (q * grid.g_st - w_s * w_t),
                q * grid.g_tt - w_t * w_t, n_s, n_t)

    def newton_term(self, grid: RingGrid, us, ut, second) -> tuple:
        """dF/d(grad u) : hess u as (x, y) components, from (u_s, u_t) and (u_ss, u_st, u_tt)."""
        g_x, g_y = grid.gradient_planes(us, ut)
        h_xx, h_xy, h_yy = grid.hessian_planes(us, ut, *second)
        return 2.0 * (g_x * h_yy - g_y * h_xy), 2.0 * (g_y * h_xx - g_x * h_xy)


@dataclass(frozen=True)
class SemilinearEquation:
    """Delta u = f(x, u): F = I, so the coefficients are the metric planes themselves."""

    rhs: SemilinearRHS
    name = "semilinear"
    picard_steps = 0
    newton_term = None

    def coefficients(self, grid: RingGrid, us: np.ndarray, ut: np.ndarray) -> tuple:
        return grid.g_ss, 2.0 * grid.g_st, grid.g_tt, grid.lap_s, grid.lap_t


MINIMAL = MinimalEquation()

# the nine-point stencil, s offset major: entry 3 (i + 1) + (j + 1) is offset (i, j)
_OFFSETS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]


class _RingOperator:
    """Residual and Jacobian of the discretized equation on one grid.

    The equation is written on the (s, t) grid as m_ss u_ss + m_st u_st +
    m_tt u_tt + n_s u_s + n_t u_t - f(x, u) (= F^{ab} u_ab - f), with the
    coefficients and f of ``equation``.  One coefficient pass per iterate:
    ``residual`` returns the planes it read, and ``jacobian`` builds the
    stencil planes of the floor and the linear step from them.
    """

    def __init__(self, grid: RingGrid, equation: MinimalEquation | SemilinearEquation):
        self.grid = grid
        self.equation = equation

    def residual(self, u: np.ndarray) -> tuple:
        """(discrete equation on the interior rows, planes it read).

        The planes are (u, (u_s, u_t, u_ss, u_st, u_tt), coefficients).
        """
        grid = self.grid
        us, ut = grid.d_s(u), grid.d_t(u)
        uss, ust, utt = grid.d_ss(u), grid.d_s(ut), grid.d_tt(u)
        m_ss, m_st, m_tt, n_s, n_t = coefficients = self.equation.coefficients(grid, us, ut)
        res = (m_ss * uss + m_st * ust + m_tt * utt + n_s * us + n_t * ut)[1:-1]
        f = self.equation.rhs.f(grid.x[1:-1].reshape(-1, 2), u[1:-1].reshape(-1))
        res -= f.reshape(res.shape)
        return res, (u, (us, ut, uss, ust, utt), coefficients)

    def _linearization_fields(self, planes: tuple, frozen: bool):
        """(m_ss, m_st, m_tt, m_s, m_t, diagonal) of the Jacobian at the planes of ``residual``.

        A Picard step (``frozen``) keeps F at its value; a Newton step adds ``newton_term``.
        """
        grid = self.grid
        u, (us, ut, *second), (m_ss, m_st, m_tt, m_s, m_t) = planes
        if not frozen and self.equation.newton_term is not None:
            # dF/d(grad u) : hess u, pulled back to (u_s, u_t)
            p1, p2 = self.equation.newton_term(grid, us, ut, second)
            m_s = m_s + p1 * grid.s_x + p2 * grid.s_y
            m_t = m_t + p1 * grid.t_x + p2 * grid.t_y
        diag = -self.equation.rhs.f_u(grid.x.reshape(-1, 2), u.reshape(-1)).reshape(u.shape)
        return m_ss, m_st, m_tt, m_s, m_t, diag

    def stencil_planes(self, fields) -> np.ndarray:
        """(9, interior rows, n_t) Jacobian coefficients, one plane per ``_OFFSETS``
        entry, from ``_linearization_fields``: the only statement of the
        nine-point weights.  The rounding floor, the stencil apply and the
        preconditioner all read these planes."""
        m_ss, m_st, m_tt, m_s, m_t, diag_extra = (f[1:-1] for f in fields)
        ds, dt = self.grid.ds, self.grid.dt
        ss, tt, s, t = m_ss * (1.0 / ds**2), m_tt * (1.0 / dt**2), m_s * (0.5 / ds), m_t * (0.5 / dt)
        st = m_st * (1.0 / (4.0 * ds * dt))
        planes = np.empty((9,) + m_ss.shape)
        planes[0] = planes[8] = st
        planes[2] = planes[6] = -st
        planes[1], planes[7] = ss - s, ss + s
        planes[3], planes[5] = tt - t, tt + t
        planes[4] = m_ss * (-2.0 / ds**2) + m_tt * (-2.0 / dt**2) + diag_extra
        return planes

    def jacobian(self, state: tuple, frozen: bool = True) -> np.ndarray:
        """``stencil_planes`` of the frozen or Newton Jacobian at a state ``residual`` returned."""
        return self.stencil_planes(self._linearization_fields(state, frozen))


def _jacobian_apply(planes: np.ndarray):
    """x -> J x for the Jacobian with these ``stencil_planes``, without assembling it.

    The nine-point stencil runs on a copy of x padded by the zero Dirichlet
    rows and by one wrapped t-column on each side.
    """
    rows, nt = planes.shape[1:]
    padded = np.zeros((rows + 2, nt + 2))
    shifted = [(k, slice(1 + i, rows + 1 + i), slice(1 + j, nt + 1 + j))
               for k, (i, j) in enumerate(_OFFSETS) if (i, j) != (0, 0)]

    def apply(x: np.ndarray) -> np.ndarray:
        inner = padded[1:-1, 1:-1]
        inner[...] = x.reshape(rows, nt)
        padded[1:-1, 0], padded[1:-1, -1] = inner[:, -1], inner[:, 0]
        y = planes[4] * inner
        for k, si, tj in shifted:
            y += planes[k] * padded[si, tj]
        return y.ravel()

    return apply


def _averaged_preconditioner(planes: np.ndarray, dt: float):
    """Row-scaled, t-averaged inverse of the Jacobian with these ``stencil_planes``,
    as a function r -> P^{-1} r, or None when it cannot be built.

    Each row is scaled by w, the sum of its four axis-neighbour weights
    (2 m_ss/ds^2 + 2 m_tt/dt^2), normalized by its mean over t per s-row, and
    the scaled planes are averaged over t (a separable approximation in the
    sense of Concus & Golub 1973): P^{-1} r = A_avg(J / w)^{-1} (r / w).  The
    averaged operator commutes with shifts in t, so each Fourier mode
    theta = k dt decouples into a tridiagonal system in s (Hockney 1965) whose
    entry for s-offset i is the symbol sum_j plane(i, j) e^{i j theta}.  The
    modes are laid out one after another as a single block-diagonal
    tridiagonal system, factored once here by LAPACK ``zgttrf``; each
    application is rfft in t, one ``zgttrs``, irfft.  None when w is not
    positive and finite, a pivot is zero or a factor is not finite.
    """
    from scipy.linalg.lapack import zgttrf, zgttrs

    rows, nt = planes.shape[1:]
    w = planes[1] + planes[7] + planes[3] + planes[5]
    if not (np.all(w > 0.0) and np.all(np.isfinite(w))):
        return None
    w /= w.mean(axis=1, keepdims=True)
    # the t-averaged planes of J / w, as (s offset, t offset, row)
    averaged = (np.einsum("kij,ij->ki", planes, 1.0 / w) / nt).reshape(3, 3, 1, rows)
    theta = np.arange(nt // 2 + 1)[:, None] * dt
    symbol = np.empty((3, nt // 2 + 1, rows), dtype=complex)  # (s offset, mode, row)
    np.multiply(averaged[:, 0] + averaged[:, 2], np.cos(theta), out=symbol.real)
    symbol.real += averaged[:, 1]
    np.multiply(averaged[:, 2] - averaged[:, 0], np.sin(theta), out=symbol.imag)
    lower, diag, upper = symbol
    # no coupling between the last row of one mode and the first of the next
    lower[:, 0] = upper[:, -1] = 0.0
    *factors, info = zgttrf(lower.ravel()[1:], diag.ravel(), upper.ravel()[:-1])
    if info != 0 or not np.all(np.isfinite(np.concatenate(factors[:4]))):
        return None

    def apply(r: np.ndarray) -> np.ndarray:
        y = np.fft.rfft(r.reshape(rows, nt) / w, axis=1).T.reshape(-1, 1)
        y = zgttrs(*factors, y, overwrite_b=True)[0]
        return np.fft.irfft(y.reshape(-1, rows).T, n=nt, axis=1).ravel()

    return apply


# Inexact Newton-Krylov (Knoll & Keyes 2004): each linear solve stops once GMRES
# has cut the residual by this relative factor, a fixed forcing term in the
# sense of Eisenstat & Walker 1996.  Picard is only a warm start.
_PICARD_FORCING = 1e-3
_NEWTON_FORCING = 1e-8
_GMRES_RESTART = 50
_GMRES_MAX_ITER = 1000  # Arnoldi steps before a linear step fails


def _gmres(apply, precond, rhs: np.ndarray, forcing: float) -> tuple:
    """Restarted GMRES (Saad & Schultz 1986) for apply(x) = rhs, preconditioned on the right.

    Each cycle builds an Arnoldi basis of A P^{-1} from the current residual,
    keeping P^{-1} of each basis vector, so the least-squares residual is that of
    the unpreconditioned system and the update needs no further P^{-1}.  The basis
    is orthogonalized by classical Gram-Schmidt run twice ("twice is enough":
    Giraud, Langou & Rozloznik 2005), and the Hessenberg columns are reduced by
    Givens rotations on Python floats.
    A cycle stops when the residual estimate is <= forcing * ||rhs|| or after
    ``_GMRES_RESTART`` steps; the solve returns once the true residual meets
    that bound too.  Returns (x, Arnoldi steps), with x None on a breakdown, a
    non-finite value or after ``_GMRES_MAX_ITER`` steps.
    """
    target = forcing * float(np.linalg.norm(rhs))
    x = np.zeros_like(rhs)
    if target == 0.0:
        return x, 0
    restart = min(_GMRES_RESTART, _GMRES_MAX_ITER)
    basis, directions = np.empty((restart + 1, rhs.size)), np.empty((restart, rhs.size))
    residual, steps = rhs, 0
    while steps < _GMRES_MAX_ITER:
        beta = float(np.linalg.norm(residual))
        basis[0] = residual / beta
        g, columns, rotations = [beta], [], []  # g: the rotated least-squares right-hand side
        for j in range(min(restart, _GMRES_MAX_ITER - steps)):
            steps += 1
            directions[j] = precond(basis[j])
            w = apply(directions[j])
            h = basis[:j + 1] @ w
            w -= h @ basis[:j + 1]
            again = basis[:j + 1] @ w
            w -= again @ basis[:j + 1]
            h += again
            h_next = float(np.linalg.norm(w))
            col = h.tolist() + [h_next]
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            r = math.hypot(col[j], h_next)
            if not (math.isfinite(r) and r > 0.0):
                return None, steps
            c, s = col[j] / r, h_next / r
            rotations.append((c, s))
            col[j] = r
            columns.append(col[:j + 1])
            g[j], g_next = c * g[j], -s * g[j]
            g.append(g_next)
            if abs(g_next) <= target:
                break
            basis[j + 1] = w / h_next
        k = len(columns)  # back substitution in the triangular factor, stored by columns
        y = [0.0] * k
        for i in reversed(range(k)):
            y[i] = (g[i] - sum(columns[q][i] * y[q] for q in range(i + 1, k))) / columns[i][i]
        x += np.asarray(y) @ directions[:k]
        residual = rhs - apply(x)
        if float(np.linalg.norm(residual)) <= target:
            return x, steps
    return None, steps


def _linear_solve(op: _RingOperator, planes: np.ndarray, rhs: np.ndarray, frozen: bool):
    """Solve J x = rhs for the Jacobian with these ``stencil_planes``.

    GMRES runs on the stencil apply of J under the t-averaged preconditioner.
    Returns (x, Krylov iterations), with x None when GMRES stops short of the
    forcing term or the preconditioner cannot be built: the step fails.
    """
    precond = _averaged_preconditioner(planes, op.grid.dt)
    if precond is None:
        return None, 0
    return _gmres(_jacobian_apply(planes), precond, rhs,
                  _PICARD_FORCING if frozen else _NEWTON_FORCING)


def solve_ring2d(
    domain: RingDomain2D,
    outer_data: np.ndarray,
    inner_data: np.ndarray,
    equation: MinimalEquation | SemilinearEquation,
    tol: float = 1e-10,
    max_iter: int = 50,
    warm_start: RingSolution | None = None,
) -> RingSolution:
    """Solve ``equation`` (``MINIMAL`` or ``SemilinearEquation(rhs)``) on the ring.

    ``outer_data`` and ``inner_data`` are the Dirichlet values at the outer and
    inner curve's angular nodes.  ``warm_start``, a solution on another grid of
    the same ring, replaces the blend and the Picard steps as the start of Newton.
    Without one, an equation that takes Picard steps warm-starts from its own
    solve on the quarter grid ((n_s + 3) // 4 + 1, n_t // 4) when that grid is at
    least ``NESTED_MIN_GRID``.  ``meta["coarse_iterations"]`` counts that solve's steps,
    nesting below it included; if it raised DidNotConverge, they are its ``iterations``,
    ``meta["coarse_failed"]`` names the grid, and this solve starts from the blend.
    """
    grid = RingGrid(domain)
    ns, nt = grid.n_s, grid.n_t
    outer_data = np.asarray(outer_data, dtype=float)
    inner_data = np.asarray(inner_data, dtype=float)
    if outer_data.shape != (nt,) or inner_data.shape != (nt,):
        raise ValueError("boundary data must match the angular grid")
    op = _RingOperator(grid, equation)

    coarse = {}  # the meta of a tried quarter grid
    coarse_ns, coarse_nt = (ns + 3) // 4 + 1, nt // 4
    if (warm_start is None and equation.picard_steps
            and coarse_ns >= NESTED_MIN_GRID[0] and coarse_nt >= NESTED_MIN_GRID[1]):
        quarter = RingDomain2D(domain.outer, domain.inner, coarse_ns, coarse_nt, domain.center)
        coarse_outer, coarse_inner = _resample_t(np.stack([outer_data, inner_data]), coarse_nt)
        try:
            warm_start = solve_ring2d(quarter, coarse_outer, coarse_inner, equation, tol, max_iter)
            coarse["coarse_iterations"] = (warm_start.iterations
                                           + warm_start.meta.get("coarse_iterations", 0))
        except DidNotConverge as failure:
            coarse = {"coarse_iterations": failure.iterations,
                      "coarse_failed": [coarse_ns, coarse_nt]}

    u = _blend(outer_data, inner_data, ns)
    if warm_start is not None:
        u += _warm_start_deviation(warm_start, domain)

    # The frozen operator applied to u is the residual itself, so each Picard
    # step solves for the correction from u.  A warm start needs none.  Without
    # a Newton term the frozen Jacobian is Newton's.
    picard_steps = equation.picard_steps if warm_start is None else 0
    newton = None if equation.newton_term is None else functools.partial(op.jacobian, frozen=False)
    u, res_norm, meta = _damped_newton(
        op.residual, op.jacobian, functools.partial(_linear_solve, op), u, tol, max_iter,
        f"ring2d {equation.name} solver", picard_steps, newton,
        ("krylov_iterations",))
    start = "blend" if warm_start is None else list(warm_start.values.shape)
    return RingSolution(
        kind="ring2d", equation=equation, values=u, residual_norm=res_norm,
        h=grid.spacing(), iterations=len(meta["phases"]), domain=domain,
        coords=grid.x, grid=grid, meta={"grid": (ns, nt), "start": start, **meta, **coarse},
    )


def solve_family(rings, equation, tol: float = 1e-10) -> list[RingSolution]:
    """Solve ``equation`` on each (domain, outer_data, inner_data) of ``rings`` in turn,
    each solve after the first warm-started from the one before it (same curves)."""
    family = []
    for domain, outer_data, inner_data in rings:
        family.append(solve_ring2d(domain, outer_data, inner_data, equation, tol,
                                   warm_start=family[-1] if family else None))
    return family
