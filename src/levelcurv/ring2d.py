"""Boundary-fitted solver for convex rings in the plane.

The ring between two nested star-shaped convex curves is mapped by transfinite
radial blending x(s, t) = (1-s) gamma0(t) + s gamma1(t), s in [0, 1] from the
outer to the inner curve, t periodic.  The blending is linear in s and the
curves are given analytically, so every metric quantity (Jacobian, inverse,
second derivatives of the map) is exact; only u is discretized, with
second-order central differences on the (s, t) grid.

The minimal surface equation is written in nondivergence form
F^{ab}(grad u) u_ab = 0 with F = (1 + |grad u|^2) I - grad u grad u^T and
solved, from a cold start, by a few Picard steps (F frozen) followed by damped
Newton, both run by the driver the radial solver shares
(``solution._damped_newton``).
The semilinear equation Delta u = f(x, u) uses the same machinery with F = I;
the minimal operator carries f = 0.

A solve starts from the blend of its boundary data, or from a solution of the
same ring on another grid (``warm_start``; mesh sequencing in the sense of
Knoll & Keyes 2004).  Every grid of a ring shares the transfinite map, so the
same (s, t) is the same physical point: the start is this grid's blend plus the
warm-start solution's deviation from its own blend, interpolated
trigonometrically in t and by 4-point Lagrange in s.  Newton then runs without
Picard steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rhs import zero_rhs
from .solution import RingSolution, _damped_newton


# ---------------------------------------------------------------------------
# parametric convex curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Circle:
    radius: float
    center: tuple = (0.0, 0.0)

    def point(self, t: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center)
        return np.stack([self.radius * np.cos(t), self.radius * np.sin(t)], axis=-1) + c

    def d1(self, t: np.ndarray) -> np.ndarray:
        return np.stack([-self.radius * np.sin(t), self.radius * np.cos(t)], axis=-1)

    def d2(self, t: np.ndarray) -> np.ndarray:
        return np.stack([-self.radius * np.cos(t), -self.radius * np.sin(t)], axis=-1)


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


MIN_GRID = (4, 8)  # smallest (n_s, n_t) a ring grid may have


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
        for name, curve in (("outer", self.outer), ("inner", self.inner)):
            p = curve.point(t) - c
            radii = np.linalg.norm(p, axis=-1)
            if np.min(radii) <= 0.0:
                raise ValueError(f"{name} curve passes through the center")
            ang = np.unwrap(np.arctan2(p[:, 1], p[:, 0]))
            dang = np.diff(ang)
            if not (np.all(dang > 0.0) or np.all(dang < 0.0)):
                raise ValueError(f"{name} curve is not star-shaped about the center")
        r_out = np.linalg.norm(self.outer.point(t) - c, axis=-1)
        r_in = np.linalg.norm(self.inner.point(t) - c, axis=-1)
        # compare radial profiles on matched angles
        ang_out = np.arctan2((self.outer.point(t) - c)[:, 1], (self.outer.point(t) - c)[:, 0])
        ang_in = np.arctan2((self.inner.point(t) - c)[:, 1], (self.inner.point(t) - c)[:, 0])
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

# The nine-point stencil; the first interior row has no (-1, *) neighbours and
# the last none at (1, *).  In this order the columns of a row ascend, except
# where t wraps: on t-column 0 the t-offset -1 comes last in each s-block, and
# on t-column n_t - 1 the t-offset +1 comes first.
_OFFSETS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]
_WRAP_FIRST = [1, 2, 0, 4, 5, 3, 7, 8, 6]
_WRAP_LAST = [2, 0, 1, 5, 3, 4, 8, 6, 7]


def _stencil_entries(per_node: np.ndarray) -> np.ndarray:
    """Entries of a (rows, nt, 9) per-node, per-offset array in CSR order, columns ascending.

    Reorders the two wrapping t-columns of ``per_node`` in place.
    """
    per_node[:, 0] = per_node[:, 0, _WRAP_FIRST]
    per_node[:, -1] = per_node[:, -1, _WRAP_LAST]
    return np.concatenate([per_node[0, :, 3:].ravel(), per_node[1:-1].ravel(),
                           per_node[-1, :, :6].ravel()])


class _RingOperator:
    """Residual and Jacobian of the discretized equation on one grid.

    The equation is written on the (s, t) grid as m_ss u_ss + m_st u_st +
    m_tt u_tt + n_s u_s + n_t u_t - f(x, u) (= F^{ab} u_ab - f); the minimal
    operator carries f = 0.  One coefficient pass per iterate: ``residual``
    returns the planes it read, and the linear step is built from them.
    """

    def __init__(self, grid: RingGrid, equation: str, rhs=None):
        self.grid = grid
        self.equation = equation
        self.rhs = rhs or zero_rhs()
        rows, nt = grid.n_s - 2, grid.n_t
        oi, oj = np.array(_OFFSETS).T
        cols = (np.arange(rows)[:, None, None] + oi) * nt + (np.arange(nt)[None, :, None] + oj) % nt
        row_len = np.full(rows * nt, 9)
        row_len[:nt] = row_len[-nt:] = 6
        # shared by every assembled matrix, so none may change them in place
        self._indices = _stencil_entries(cols).astype(np.int32)
        self._indptr = np.concatenate([[0], np.cumsum(row_len)]).astype(np.int32)
        self._indices.flags.writeable = self._indptr.flags.writeable = False

    def coefficients(self, us: np.ndarray, ut: np.ndarray) -> tuple:
        """(m_ss, m_st, m_tt, n_s, n_t) at the reference gradient (us, ut).

        Minimal: F = q I - g g^T with g = grad u and q = 1 + |g|^2, so with
        G the inverse metric and w = G (us, ut) the second-order part is
        m = q G - w w^T and n_xi = q lap xi - g^T hess(xi) g.  Semilinear: F = I.
        """
        grid = self.grid
        if self.equation == "semilinear":
            return grid.g_ss, 2.0 * grid.g_st, grid.g_tt, grid.lap_s, grid.lap_t
        w_s, w_t = grid.g_ss * us + grid.g_st * ut, grid.g_st * us + grid.g_tt * ut
        q = 1.0 + us * w_s + ut * w_t
        g_x, g_y = grid.gradient_planes(us, ut)
        xx, xy, yy = g_x * g_x, 2.0 * g_x * g_y, g_y * g_y
        n_s = q * grid.lap_s - (xx * grid.s_xx + xy * grid.s_xy + yy * grid.s_yy)
        n_t = q * grid.lap_t - (xx * grid.t_xx + xy * grid.t_xy + yy * grid.t_yy)
        return (q * grid.g_ss - w_s * w_s, 2.0 * (q * grid.g_st - w_s * w_t),
                q * grid.g_tt - w_t * w_t, n_s, n_t)

    def residual(self, u: np.ndarray) -> tuple:
        """(discrete equation on the interior rows, planes it read).

        The planes are (u, (u_s, u_t, u_ss, u_st, u_tt), coefficients).
        """
        grid = self.grid
        us, ut = grid.d_s(u), grid.d_t(u)
        uss, ust, utt = grid.d_ss(u), grid.d_s(ut), grid.d_tt(u)
        m_ss, m_st, m_tt, n_s, n_t = coefficients = self.coefficients(us, ut)
        res = (m_ss * uss + m_st * ust + m_tt * utt + n_s * us + n_t * ut)[1:-1]
        res -= self.rhs.f(grid.x[1:-1].reshape(-1, 2), u[1:-1].reshape(-1)).reshape(res.shape)
        return res, (u, (us, ut, uss, ust, utt), coefficients)

    def _linearization_fields(self, planes: tuple, frozen: bool):
        """(m_ss, m_st, m_tt, m_s, m_t, diagonal) of the Jacobian at the planes of ``residual``.

        A Picard step (``frozen``) keeps F at its value; a Newton step adds its derivative.
        """
        grid = self.grid
        u, (us, ut, *second), (m_ss, m_st, m_tt, m_s, m_t) = planes
        if self.equation == "minimal" and not frozen:
            # dF/d(grad u) : hess u, pulled back to (u_s, u_t)
            g_x, g_y = grid.gradient_planes(us, ut)
            h_xx, h_xy, h_yy = grid.hessian_planes(us, ut, *second)
            p1 = 2.0 * (g_x * h_yy - g_y * h_xy)
            p2 = 2.0 * (g_y * h_xx - g_x * h_xy)
            m_s = m_s + p1 * grid.s_x + p2 * grid.s_y
            m_t = m_t + p1 * grid.t_x + p2 * grid.t_y
        diag = -self.rhs.f_u(grid.x.reshape(-1, 2), u.reshape(-1)).reshape(u.shape)
        return m_ss, m_st, m_tt, m_s, m_t, diag

    def assemble(self, fields):
        """Sparse CSR Jacobian over the interior unknowns from ``_linearization_fields``.

        The Dirichlet rows are fixed, so their couplings are left out: the
        Newton and Picard steps solve for a correction that vanishes there.
        The nine-point pattern is built once per operator; only the entries
        are filled here.
        """
        from scipy.sparse import csr_matrix

        m_ss, m_st, m_tt, m_s, m_t, diag_extra = (f[1:-1] for f in fields)
        ds, dt = self.grid.ds, self.grid.dt
        ss, tt, s, t = m_ss * (1.0 / ds**2), m_tt * (1.0 / dt**2), m_s * (0.5 / ds), m_t * (0.5 / dt)
        st = m_st * (1.0 / (4.0 * ds * dt))
        per_node = np.empty(m_ss.shape + (9,))
        per_node[..., 0] = per_node[..., 8] = st
        per_node[..., 2] = per_node[..., 6] = -st
        per_node[..., 1], per_node[..., 7] = ss - s, ss + s
        per_node[..., 3], per_node[..., 5] = tt - t, tt + t
        per_node[..., 4] = m_ss * (-2.0 / ds**2) + m_tt * (-2.0 / dt**2) + diag_extra
        n_int = m_ss.size
        return csr_matrix((_stencil_entries(per_node), self._indices, self._indptr),
                          shape=(n_int, n_int))


def _averaged_preconditioner(fields, ds: float, dt: float):
    """Row-scaled, t-averaged inverse of the Jacobian as a scipy LinearOperator,
    or None when it cannot be built.

    Each row is scaled by its stencil diagonal w = 2 m_ss/ds^2 + 2 m_tt/dt^2,
    normalized by its mean over t per s-row, and the scaled coefficients are
    averaged over t (a separable approximation in the sense of Concus & Golub
    1973): P^{-1} r = A_avg(fields / w)^{-1} (r / w).  The averaged operator
    commutes with shifts in t, so each Fourier mode theta = k dt decouples into
    a tridiagonal system in s (Hockney 1965).  The modes are laid out one after
    another as a single block-diagonal tridiagonal system, factored once here
    by LAPACK ``zgttrf``; each application is rfft in t, one ``zgttrs``, irfft.
    None when w is not positive and finite, a pivot is zero or a factor is not finite.
    """
    from scipy.linalg.lapack import zgttrf, zgttrs
    from scipy.sparse.linalg import LinearOperator

    rows, nt = fields[0].shape[0] - 2, fields[0].shape[1]
    w = 2.0 * fields[0][1:-1] / ds**2 + 2.0 * fields[2][1:-1] / dt**2
    if not (np.all(w > 0.0) and np.all(np.isfinite(w))):
        return None
    w /= w.mean(axis=1, keepdims=True)
    m_ss, m_st, m_tt, m_s, m_t, d = ((f[1:-1] / w).mean(axis=1) for f in fields)
    theta = np.arange(nt // 2 + 1)[:, None] * dt  # mode-major: (modes, rows)
    sin = np.sin(theta)
    cross = 1j * m_st * sin / (2.0 * ds * dt)
    lower = m_ss / ds**2 - m_s / (2.0 * ds) - cross
    upper = m_ss / ds**2 + m_s / (2.0 * ds) + cross
    diag = (-2.0 * m_ss / ds**2 - 4.0 * m_tt * np.sin(theta / 2.0) ** 2 / dt**2
            + 1j * m_t * sin / dt + d)
    # no coupling between the last row of one mode and the first of the next
    lower[:, 0] = upper[:, -1] = 0.0
    *factors, info = zgttrf(lower.ravel()[1:], diag.ravel(), upper.ravel()[:-1])
    if info != 0 or not np.all(np.isfinite(np.concatenate(factors[:4]))):
        return None

    def apply(r: np.ndarray) -> np.ndarray:
        y = np.fft.rfft(r.reshape(rows, nt) / w, axis=1).T.reshape(-1, 1)
        y = zgttrs(*factors, y, overwrite_b=True)[0]
        return np.fft.irfft(y.reshape(-1, rows).T, n=nt, axis=1).ravel()

    return LinearOperator((rows * nt, rows * nt), matvec=apply, dtype=float)


# frozen-coefficient steps before Newton, minimal equation only
_PICARD_STEPS = 5
# Inexact Newton-Krylov (Knoll & Keyes 2004): each linear solve stops once GMRES
# has cut the residual by this relative factor, a fixed forcing term in the
# sense of Eisenstat & Walker 1996.  Picard is only a warm start.
_PICARD_FORCING = 1e-3
_NEWTON_FORCING = 1e-8
_GMRES_RESTART = 50
_GMRES_MAX_ITER = 500  # inner iterations before the splu fallback


def _linear_solve(op: _RingOperator, fields: tuple, rhs: np.ndarray, frozen: bool):
    """Solve J x = rhs for the Jacobian of ``_linearization_fields``.

    Returns (x, linear solver path, Krylov iterations).

    GMRES runs under the t-averaged preconditioner; sparse LU is the fallback
    when GMRES stops short of the forcing term or the preconditioner breaks down.
    """
    from scipy.sparse.linalg import gmres, splu

    forcing = _PICARD_FORCING if frozen else _NEWTON_FORCING
    mat = op.assemble(fields)
    precond = _averaged_preconditioner(fields, op.grid.ds, op.grid.dt)
    krylov = 0
    if precond is not None:
        def count(_):
            nonlocal krylov
            krylov += 1

        restart = min(_GMRES_RESTART, _GMRES_MAX_ITER)
        x, info = gmres(mat, rhs, rtol=forcing, atol=0.0, restart=restart,
                        maxiter=-(-_GMRES_MAX_ITER // restart), M=precond,
                        callback=count, callback_type="pr_norm")
        if info == 0:
            return x, "gmres", krylov
    return splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(rhs), "splu", krylov


def _solve_ring2d(
    domain: RingDomain2D,
    outer_data: np.ndarray,
    inner_data: np.ndarray,
    equation: str,
    rhs=None,
    tol: float = 1e-10,
    max_iter: int = 50,
    warm_start: RingSolution | None = None,
) -> RingSolution:
    grid = RingGrid(domain)
    ns, nt = grid.n_s, grid.n_t
    outer_data = np.asarray(outer_data, dtype=float)
    inner_data = np.asarray(inner_data, dtype=float)
    if outer_data.shape != (nt,) or inner_data.shape != (nt,):
        raise ValueError("boundary data must match the angular grid")
    op = _RingOperator(grid, equation, rhs)

    u = _blend(outer_data, inner_data, ns)
    if warm_start is not None:
        u += _warm_start_deviation(warm_start, domain)
    u_scale = 1.0 + float(max(np.max(np.abs(outer_data)), np.max(np.abs(inner_data))))

    def rounding_floor(planes):
        # rounding floor of the discrete operator (second differences divide
        # the eps-level noise of u by ds^2); tol below it cannot be reached
        m_ss, m_st, m_tt, m_s, m_t = planes[-1]
        coeff_scale = float(np.max(
            np.abs(m_ss) * 4.0 / grid.ds**2
            + np.abs(m_st) / (grid.ds * grid.dt)
            + np.abs(m_tt) * 4.0 / grid.dt**2
            + np.abs(m_s) / grid.ds
            + np.abs(m_t) / grid.dt
        ))
        return 32.0 * np.finfo(float).eps * coeff_scale * u_scale

    # per iteration: which linear solver ran and how many GMRES iterations it took
    paths, krylov = [], []

    def linearize(res, planes, frozen):
        return op._linearization_fields(planes, frozen), -res.ravel(), frozen

    def solve(system):
        delta, path, its = _linear_solve(op, *system)
        paths.append(path)
        krylov.append(its)
        return delta.reshape(ns - 2, nt)

    # The frozen operator applied to u is the minimal residual itself, so each
    # Picard step solves for the correction from u.  A warm start needs none.
    picard_steps = _PICARD_STEPS if equation == "minimal" and warm_start is None else 0
    u, res_norm, meta = _damped_newton(
        op.residual, linearize, solve, u, tol, rounding_floor, max_iter,
        f"ring2d {equation} solver", picard_steps=picard_steps)
    start = "blend" if warm_start is None else list(warm_start.values.shape)
    return RingSolution(
        kind="ring2d", equation=equation, values=u, residual_norm=res_norm,
        h=grid.spacing(), iterations=len(meta["phases"]), rhs=rhs, domain=domain,
        coords=grid.x, grid=grid,
        meta={"grid": (ns, nt), "start": start, "linear_solver": paths,
              "krylov_iterations": krylov, **meta},
    )


def solve_minimal_ring2d(
    domain: RingDomain2D,
    outer_data,
    inner_data,
    tol: float = 1e-10,
    max_iter: int = 50,
    warm_start: RingSolution | None = None,
) -> RingSolution:
    """Minimal surface equation on the ring with Dirichlet data per boundary curve.

    ``warm_start``, a solution on another grid of the same ring, replaces the
    blend and the Picard steps as the start of Newton.
    """
    return _solve_ring2d(domain, outer_data, inner_data, "minimal",
                         tol=tol, max_iter=max_iter, warm_start=warm_start)


def solve_semilinear_ring2d(
    domain: RingDomain2D,
    outer_data,
    inner_data,
    rhs,
    tol: float = 1e-10,
    max_iter: int = 50,
    warm_start: RingSolution | None = None,
) -> RingSolution:
    """Delta u = f(x, u) on the ring with Dirichlet data per boundary curve.

    ``warm_start``, a solution on another grid of the same ring, replaces the
    blend as the start of Newton.
    """
    return _solve_ring2d(domain, outer_data, inner_data, "semilinear", rhs=rhs,
                         tol=tol, max_iter=max_iter, warm_start=warm_start)

