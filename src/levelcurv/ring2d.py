"""Boundary-fitted solver for convex rings in the plane.

The ring between two nested star-shaped convex curves is mapped by transfinite
radial blending x(s, t) = (1-s) gamma0(t) + s gamma1(t), s in [0, 1] from the
outer to the inner curve, t periodic.  The blending is linear in s and the
curves are given analytically, so every metric quantity (Jacobian, inverse,
second derivatives of the map) is exact; only u is discretized, with
second-order central differences on the (s, t) grid.

The minimal surface equation is written in nondivergence form
F^{ab}(grad u) u_ab = 0 with F = (1 + |grad u|^2) I - grad u grad u^T and
solved by a short Picard warm start (F frozen) followed by damped Newton.
The semilinear equation Delta u = f(x, u) uses the same machinery with F = I
and a -f_u diagonal term in the Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import LinearOperator, gmres, splu

from .errors import DidNotConverge
from .solution import RingSolution


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


# ---------------------------------------------------------------------------
# metric of the transfinite map
# ---------------------------------------------------------------------------

class RingGrid:
    """All exact metric data of the transfinite map on the (s, t) grid."""

    def __init__(self, domain: RingDomain2D):
        self.domain = domain
        ns, nt = domain.n_s, domain.n_t
        self.n_s, self.n_t = ns, nt
        self.ds = 1.0 / (ns - 1)
        self.dt = 2.0 * math.pi / nt
        s = np.linspace(0.0, 1.0, ns)[:, None, None]
        t = (np.arange(nt) * self.dt)[None, :]
        g0 = domain.outer.point(t[0])
        g1 = domain.inner.point(t[0])
        g0d1, g1d1 = domain.outer.d1(t[0]), domain.inner.d1(t[0])
        g0d2, g1d2 = domain.outer.d2(t[0]), domain.inner.d2(t[0])
        self.x = (1.0 - s) * g0[None, :, :] + s * g1[None, :, :]
        x_s = np.broadcast_to((g1 - g0)[None, :, :], self.x.shape)
        x_t = (1.0 - s) * g0d1[None, :, :] + s * g1d1[None, :, :]
        x_st = np.broadcast_to((g1d1 - g0d1)[None, :, :], self.x.shape)
        x_tt = (1.0 - s) * g0d2[None, :, :] + s * g1d2[None, :, :]

        jac = np.stack([x_s, x_t], axis=-1)  # (ns, nt, 2 phys, 2 ref)
        det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
        if np.min(np.abs(det)) < 1e-12:
            raise ValueError("degenerate transfinite map (zero Jacobian)")
        inv = np.empty_like(jac)  # inv[mu, lam] = d xi_mu / d x_lam
        inv[..., 0, 0] = jac[..., 1, 1] / det
        inv[..., 0, 1] = -jac[..., 0, 1] / det
        inv[..., 1, 0] = -jac[..., 1, 0] / det
        inv[..., 1, 1] = jac[..., 0, 0] / det
        self.inv = inv

        # second derivatives of the map: S[lam, mu, nu] with (mu, nu) in {s, t}
        second = np.zeros(self.x.shape + (2, 2))
        second[..., 0, 1] = x_st
        second[..., 1, 0] = x_st
        second[..., 1, 1] = x_tt
        # curvature of the inverse map: T[i, a, b] = d^2 xi_i / dx_a dx_b
        inner = np.einsum("ntlmv,ntma,ntvb->ntlab", second, inv, inv)
        self.t_tensor = -np.einsum("ntil,ntlab->ntiab", inv, inner)

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
        out = np.zeros_like(u)
        out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / self.ds**2
        if u.shape[0] >= 5:  # one-sided five-point rows; a four-row grid leaves them zero
            w = np.array([35.0, -104.0, 114.0, -56.0, 11.0]) / (12.0 * self.ds**2)
            out[0], out[-1] = w @ u[:5], w @ u[::-1][:5]
        return out

    def d_tt(self, u: np.ndarray) -> np.ndarray:
        return (np.roll(u, -1, axis=1) - 2.0 * u + np.roll(u, 1, axis=1)) / self.dt**2

    def d_st(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        up = np.roll(u, -1, axis=1)
        um = np.roll(u, 1, axis=1)
        out[1:-1] = (up[2:] - um[2:] - up[:-2] + um[:-2]) / (4.0 * self.ds * self.dt)
        # the one-sided d_s of the central d_t on the boundary rows
        out[0] = self.d_s(self.d_t(u[:3]))[0]
        out[-1] = self.d_s(self.d_t(u[-3:]))[-1]
        return out

    def physical_gradient(self, u: np.ndarray) -> np.ndarray:
        """(ns, nt, 2) gradient; one-sided in s at the two boundary rows."""
        us, ut = self.d_s(u), self.d_t(u)
        return np.einsum("ntm,ntma->nta", np.stack([us, ut], axis=-1), self.inv)

    def physical_hessian(self, u: np.ndarray) -> np.ndarray:
        """(ns, nt, 2, 2) Hessian; one-sided in s at the two boundary rows."""
        us, ut = self.d_s(u), self.d_t(u)
        ref2 = np.zeros(u.shape + (2, 2))
        ref2[..., 0, 0] = self.d_ss(u)
        ref2[..., 0, 1] = ref2[..., 1, 0] = self.d_st(u)
        ref2[..., 1, 1] = self.d_tt(u)
        chain = np.swapaxes(self.inv, -1, -2) @ ref2 @ self.inv
        bend = np.einsum("ntm,ntmab->ntab", np.stack([us, ut], axis=-1), self.t_tensor)
        return chain + bend

    def spacing(self) -> float:
        """Representative physical spacing: the largest node-to-node step."""
        dx_s = np.linalg.norm(np.diff(self.x, axis=0), axis=-1)
        dx_t = np.linalg.norm(self.x - np.roll(self.x, 1, axis=1), axis=-1)
        return float(max(dx_s.max(), dx_t.max()))


# ---------------------------------------------------------------------------
# nonlinear solver
# ---------------------------------------------------------------------------

_OFFSETS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]


def _stencils(ds: float, dt: float) -> dict:
    c = {o: np.zeros(5) for o in _OFFSETS}  # [ss, st, tt, s, t]
    c[(-1, 0)][0] = c[(1, 0)][0] = 1.0 / ds**2
    c[(0, 0)][0] = -2.0 / ds**2
    c[(0, -1)][2] = c[(0, 1)][2] = 1.0 / dt**2
    c[(0, 0)][2] = -2.0 / dt**2
    for si, ti, sgn in [(1, 1, 1.0), (1, -1, -1.0), (-1, 1, -1.0), (-1, -1, 1.0)]:
        c[(si, ti)][1] = sgn / (4.0 * ds * dt)
    c[(1, 0)][3] = 1.0 / (2.0 * ds)
    c[(-1, 0)][3] = -1.0 / (2.0 * ds)
    c[(0, 1)][4] = 1.0 / (2.0 * dt)
    c[(0, -1)][4] = -1.0 / (2.0 * dt)
    return c


class _RingOperator:
    """Assembles residual and Jacobian of the discretized equation."""

    def __init__(self, grid: RingGrid, equation: str, rhs=None):
        self.grid = grid
        self.equation = equation
        self.rhs = rhs
        self.stencils = _stencils(grid.ds, grid.dt)

    def _f_matrix(self, grad: np.ndarray) -> np.ndarray:
        if self.equation == "semilinear":
            f = np.zeros(grad.shape[:-1] + (2, 2))
            f[..., 0, 0] = 1.0
            f[..., 1, 1] = 1.0
            return f
        g1, g2 = grad[..., 0], grad[..., 1]
        f = np.empty(grad.shape[:-1] + (2, 2))
        f[..., 0, 0] = 1.0 + g2 * g2
        f[..., 1, 1] = 1.0 + g1 * g1
        f[..., 0, 1] = f[..., 1, 0] = -g1 * g2
        return f

    def residual(self, u: np.ndarray) -> np.ndarray:
        grid = self.grid
        grad = grid.physical_gradient(u)
        hess = grid.physical_hessian(u)
        f = self._f_matrix(grad)
        res = np.einsum("ntab,ntab->nt", f, hess)
        if self.equation == "semilinear":
            res = res - self.rhs.f(grid.x.reshape(-1, 2), u.reshape(-1)).reshape(u.shape)
        return res[1:-1]

    def _linearization_fields(self, u: np.ndarray, freeze_f: bool):
        grid = self.grid
        grad = grid.physical_gradient(u)
        f = self._f_matrix(grad)
        inv = grid.inv
        aft = inv @ f @ np.swapaxes(inv, -1, -2)
        m_ss = aft[..., 0, 0]
        m_st = 2.0 * aft[..., 0, 1]
        m_tt = aft[..., 1, 1]
        n_s = np.einsum("ntab,ntab->nt", f, grid.t_tensor[..., 0, :, :])
        n_t = np.einsum("ntab,ntab->nt", f, grid.t_tensor[..., 1, :, :])
        m_s, m_t = n_s.copy(), n_t.copy()
        diag_extra = np.zeros_like(m_ss)
        if self.equation == "minimal" and not freeze_f:
            hess = grid.physical_hessian(u)
            g1, g2 = grad[..., 0], grad[..., 1]
            h11, h12, h22 = hess[..., 0, 0], hess[..., 0, 1], hess[..., 1, 1]
            p1 = 2.0 * g1 * h22 - 2.0 * g2 * h12
            p2 = 2.0 * g2 * h11 - 2.0 * g1 * h12
            m_s = m_s + p1 * inv[..., 0, 0] + p2 * inv[..., 0, 1]
            m_t = m_t + p1 * inv[..., 1, 0] + p2 * inv[..., 1, 1]
        if self.equation == "semilinear" and not freeze_f:
            diag_extra = -self.rhs.f_u(grid.x.reshape(-1, 2), u.reshape(-1)).reshape(u.shape)
        return m_ss, m_st, m_tt, m_s, m_t, diag_extra

    def assemble(self, fields) -> csr_matrix:
        """Sparse Jacobian over the interior unknowns from ``_linearization_fields``.

        The Dirichlet rows are fixed, so their couplings are left out: the
        Newton and Picard steps solve for a correction that vanishes there.
        """
        ns, nt = self.grid.n_s, self.grid.n_t
        n_int = (ns - 2) * nt
        *coeffs, diag_extra = fields
        stacked = np.stack(coeffs, axis=-1)[1:-1]  # interior rows

        i_idx = np.arange(ns - 2)[:, None]
        j_idx = np.arange(nt)[None, :]
        row_of = np.broadcast_to(i_idx * nt + j_idx, (ns - 2, nt))

        rows, cols, data = [], [], []
        for (oi, oj) in _OFFSETS:
            coeff = stacked @ self.stencils[(oi, oj)]
            if oi == 0 and oj == 0:
                coeff = coeff + diag_extra[1:-1]
            target = np.broadcast_to(i_idx + oi, (ns - 2, nt))
            keep = (target >= 0) & (target < ns - 2)
            rows.append(row_of[keep])
            cols.append((target * nt + (j_idx + oj) % nt)[keep])
            data.append(coeff[keep])
        return csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n_int, n_int),
        )


def _averaged_preconditioner(fields, ds: float, dt: float) -> LinearOperator | None:
    """Inverse of the t-averaged Jacobian, or None when a Thomas pivot is not finite.

    With every coefficient averaged over t per s-row the operator commutes with
    shifts in t, so each Fourier mode theta = k dt decouples into a tridiagonal
    system in s (Hockney 1965).  It is applied as rfft in t, a Thomas sweep in
    s vectorized over the modes (forward elimination done once here), irfft.
    """
    m_ss, m_st, m_tt, m_s, m_t, d = (f[1:-1].mean(axis=1)[:, None] for f in fields)
    rows, nt = fields[0].shape[0] - 2, fields[0].shape[1]
    theta = np.arange(nt // 2 + 1) * dt
    sin = np.sin(theta)[None, :]
    cross = 1j * m_st * sin / (2.0 * ds * dt)
    lower = m_ss / ds**2 - m_s / (2.0 * ds) - cross
    upper = m_ss / ds**2 + m_s / (2.0 * ds) + cross
    diag = (-2.0 * m_ss / ds**2 - 4.0 * m_tt * np.sin(theta / 2.0)[None, :] ** 2 / dt**2
            + 1j * m_t * sin / dt + d)

    inv_pivot = np.empty_like(diag)
    sup = np.zeros_like(diag)  # upper / pivot after elimination
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(rows):
            pivot = diag[i] - lower[i] * sup[i - 1] if i else diag[0]
            inv_pivot[i] = 1.0 / pivot
            sup[i] = upper[i] * inv_pivot[i]
    if not np.all(np.isfinite(inv_pivot)):
        return None

    def apply(r: np.ndarray) -> np.ndarray:
        y = np.fft.rfft(r.reshape(rows, nt), axis=1)
        y[0] *= inv_pivot[0]
        for i in range(1, rows):
            y[i] = (y[i] - lower[i] * y[i - 1]) * inv_pivot[i]
        for i in range(rows - 2, -1, -1):
            y[i] -= sup[i] * y[i + 1]
        return np.fft.irfft(y, n=nt, axis=1).ravel()

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


def _linear_solve(op: _RingOperator, u: np.ndarray, rhs: np.ndarray, freeze_f: bool,
                  forcing: float):
    """Solve J(u) x = rhs; returns (x, linear solver path, Krylov iterations).

    GMRES runs under the t-averaged preconditioner; sparse LU is the fallback
    when GMRES stops short of ``forcing`` or the preconditioner breaks down.
    """
    fields = op._linearization_fields(u, freeze_f)
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
    initial: np.ndarray | None = None,
) -> RingSolution:
    grid = RingGrid(domain)
    ns, nt = grid.n_s, grid.n_t
    outer_data = np.asarray(outer_data, dtype=float)
    inner_data = np.asarray(inner_data, dtype=float)
    if outer_data.shape != (nt,) or inner_data.shape != (nt,):
        raise ValueError("boundary data must match the angular grid")
    op = _RingOperator(grid, equation, rhs)

    if initial is not None:
        u = initial.copy()
        u[0], u[-1] = outer_data, inner_data
    else:
        s = np.linspace(0.0, 1.0, ns)[:, None]
        u = (1.0 - s) * outer_data[None, :] + s * inner_data[None, :]

    # rounding floor of the discrete operator (second differences divide
    # the eps-level noise of u by ds^2); tol below it cannot be reached
    m_ss, m_st, m_tt, m_s, m_t, _ = op._linearization_fields(u, freeze_f=True)
    coeff_scale = float(np.max(
        np.abs(m_ss) * 4.0 / grid.ds**2
        + np.abs(m_st) / (grid.ds * grid.dt)
        + np.abs(m_tt) * 4.0 / grid.dt**2
        + np.abs(m_s) / grid.ds
        + np.abs(m_t) / grid.dt
    ))
    u_scale = 1.0 + float(max(np.max(np.abs(outer_data)), np.max(np.abs(inner_data))))
    tol_used = float(max(tol, 32.0 * np.finfo(float).eps * coeff_scale * u_scale))
    # per iteration: which linear solver ran and how many GMRES iterations it took
    paths, krylov = [], []

    def solution(values, res_norm, iterations):
        return RingSolution(
            kind="ring2d", equation=equation, values=values, residual_norm=res_norm,
            h=grid.spacing(), iterations=iterations, rhs=rhs, domain=domain,
            coords=grid.x, grid=grid,
            meta={"grid": (ns, nt), "tol": tol, "tol_used": tol_used,
                  "linear_solver": paths, "krylov_iterations": krylov},
        )

    if np.allclose(outer_data, inner_data) and (
        equation == "minimal" or rhs is None or getattr(rhs, "is_zero", False)
    ):
        # constant data, homogeneous equation: the blend is already constant
        if np.ptp(outer_data) == 0.0:
            return solution(u, 0.0, 0)

    res = op.residual(u)
    res_norm = float(np.max(np.abs(res)))
    iterations = 0

    # The frozen operator applied to u is the minimal residual itself, so each
    # Picard step solves for the correction from u.
    for _ in range(_PICARD_STEPS if equation == "minimal" else 0):
        if res_norm <= tol_used:
            break
        delta, path, its = _linear_solve(op, u, -res.ravel(), True, _PICARD_FORCING)
        paths.append(path)
        krylov.append(its)
        u[1:-1] += delta.reshape(ns - 2, nt)
        res = op.residual(u)
        res_norm = float(np.max(np.abs(res)))
        iterations += 1

    while res_norm > tol_used:
        if iterations >= max_iter:
            raise DidNotConverge(
                f"ring2d {equation} solver stalled at residual {res_norm:.3e}",
                iterations=iterations,
                residual=res_norm,
            )
        delta, path, its = _linear_solve(op, u, -res.ravel(), False, _NEWTON_FORCING)
        paths.append(path)
        krylov.append(its)
        step = 1.0
        accepted = False
        for _ in range(8):
            trial = u.copy()
            trial[1:-1] += step * delta.reshape(ns - 2, nt)
            trial_res = op.residual(trial)
            trial_norm = float(np.max(np.abs(trial_res)))
            if trial_norm < res_norm:
                u, res, res_norm = trial, trial_res, trial_norm
                accepted = True
                break
            step *= 0.5
        if not accepted:
            raise DidNotConverge(
                f"ring2d {equation} Newton line search failed at {res_norm:.3e}",
                iterations=iterations,
                residual=res_norm,
            )
        iterations += 1

    return solution(u, res_norm, iterations)


def solve_minimal_ring2d(
    domain: RingDomain2D,
    outer_data,
    inner_data,
    tol: float = 1e-10,
    max_iter: int = 50,
    initial: np.ndarray | None = None,
) -> RingSolution:
    """Minimal surface equation on the ring with Dirichlet data per boundary curve."""
    return _solve_ring2d(domain, outer_data, inner_data, "minimal",
                         tol=tol, max_iter=max_iter, initial=initial)


def solve_semilinear_ring2d(
    domain: RingDomain2D,
    outer_data,
    inner_data,
    rhs,
    tol: float = 1e-10,
    max_iter: int = 50,
    initial: np.ndarray | None = None,
) -> RingSolution:
    """Delta u = f(x, u) on the ring with Dirichlet data per boundary curve."""
    return _solve_ring2d(domain, outer_data, inner_data, "semilinear", rhs=rhs,
                         tol=tol, max_iter=max_iter, initial=initial)

