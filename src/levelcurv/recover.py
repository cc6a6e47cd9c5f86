"""Jet recovery from discrete solutions.

All recovery is local weighted least-squares polynomial fitting in physical
coordinates, centered and scaled at the evaluation point: a degree-(order+1)
fit reproduces polynomial data of that degree exactly (to conditioning), and
on smooth data the Hessian converges at second order.

One engine serves both granularities.  For each expansion center it solves
the weighted normal equations only for the derivative coefficients asked
for, which turns the fit into a few rows that map window values to
derivatives.  Batched recovery at every grid node (the psi-harmonicity
check's degree-4 fit) builds those rows one s-row at a time and applies them
with one gather and one matmul; the single-point API is a one-node call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooCloseToBoundary
from .fields import radial_jet
from .geometry import Jet, make_jet
from .solution import RingSolution

_MIN_LAYERS = {2: 2, 3: 3}

# derivative multi-indices (i, j) of d^(i+j) / dx^i dy^j
_GRAD_HESS = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
_THIRD = ((3, 0), (2, 1), (1, 2), (0, 3))


# ---------------------------------------------------------------------------
# the fit engine
# ---------------------------------------------------------------------------

def _design_matrix_2d(dx: np.ndarray, dy: np.ndarray, degree: int) -> np.ndarray:
    """(..., k, m) monomials dx^i dy^j, by total degree i+j and then by i.

    dx^i dy^j is row (i+j)(i+j+1)/2 + i.  Built by running products: each
    degree block is the previous block times dx, plus its first monomial
    times dy.
    """
    k = (degree + 1) * (degree + 2) // 2
    out = np.empty(dx.shape[:-1] + (k, dx.shape[-1]))
    out[..., 0, :] = 1.0
    n = 1
    for total in range(1, degree + 1):
        prev = n - total  # the degree total-1 block is out[prev:n], (0, total-1) first
        np.multiply(out[..., prev, :], dy, out=out[..., n, :])
        np.multiply(out[..., prev:n, :], dx[..., None, :], out=out[..., n + 1:n + 1 + total, :])
        n += total + 1
    return out


def _half_width(degree: int) -> int:
    return 2 if degree <= 3 else 3


def _window_index(i: int, cols: np.ndarray, ns: int, nt: int, half: int) -> np.ndarray:
    """Flat node indices (len(cols), w*w) of the windows centered on nodes (i, cols).

    Windows near the s boundaries shift inward (one-sided); t is periodic.
    """
    w = 2 * half + 1
    lo = min(max(i - half, 0), ns - w)
    rows = (lo + np.arange(w)) * nt
    cw = (cols[:, None] + np.arange(-half, half + 1)) % nt
    return (rows[None, :, None] + cw[:, None, :]).reshape(len(cols), w * w)


def _derivative_rows(d: np.ndarray, degree: int, exps) -> np.ndarray:
    """(P, len(exps), m) rows mapping window values to derivatives at P centers.

    d holds the (P, m, 2) window offsets from each center.  With B the scaled
    design matrix and W the Gaussian weights, the fitted coefficient vector is
    G^{-1} B^T W f with G = B^T W B, so G Y = E is solved only for the
    requested coefficients and the rows are (W B Y)^T, carrying the factorial
    and scale factors of each derivative.
    """
    scale = np.maximum(np.median(np.linalg.norm(d, axis=-1), axis=1), 1e-300)
    dx = d[..., 0] / scale[:, None]
    dy = d[..., 1] / scale[:, None]
    b = _design_matrix_2d(dx, dy, degree)                              # (P, k, m)
    bw = b * np.exp(-(dx * dx + dy * dy))[:, None, :]
    sel = np.zeros((b.shape[-2], len(exps)))
    for r, (i, j) in enumerate(exps):
        sel[(i + j) * (i + j + 1) // 2 + i, r] = math.factorial(i) * math.factorial(j)
    y = np.linalg.solve(bw @ np.swapaxes(b, 1, 2), sel)               # (P, k, r)
    rows = np.swapaxes(y, 1, 2) @ bw                                   # (P, r, m)
    powers = np.array([i + j for i, j in exps])
    return rows / scale[:, None, None] ** powers[:, None]


def _hessian(h: np.ndarray) -> np.ndarray:
    """(..., 2, 2) symmetric matrices from (..., 3) entries (xx, xy, yy)."""
    return np.stack([h[..., 0], h[..., 1], h[..., 1], h[..., 2]], axis=-1).reshape(
        h.shape[:-1] + (2, 2)
    )


@dataclass(frozen=True)
class HessianRows:
    """The Hessian rows of a grid fit on a run of s-rows.

    The fit weights depend only on node coordinates, so the same rows give
    the fitted Hessian of any other node field on the same grid.
    """

    index: np.ndarray  # (rows, N_t, m) flat node indices of each fit window
    ops: np.ndarray    # (rows, N_t, 3, m) rows for (f_xx, f_xy, f_yy)

    def apply(self, field: np.ndarray) -> np.ndarray:
        """(rows, N_t, 2, 2) fitted Hessian of a node field: one gather, one matmul."""
        window = field.reshape(-1)[self.index]
        return _hessian((self.ops @ window[..., None])[..., 0])


def grid_field_fit(
    solution: RingSolution,
    field: np.ndarray,
    degree: int = 3,
    hessian_rows: slice | None = None,
):
    """Weighted LSQ fit of a node field at every grid node.

    Returns (grad, hess) arrays over (N_s, N_t).  Rows near the s boundaries
    use inward-shifted (one-sided) windows, so boundary rows are legal
    evaluation points.  Given a slice of s-rows as ``hessian_rows``, also
    returns the HessianRows of the fit on those rows.
    """
    if solution.kind != "ring2d":
        raise ValueError("grid_field_fit expects a 2D ring solution")
    ns, nt = field.shape
    half = _half_width(degree)
    if ns < 2 * half + 1:
        raise TooCloseToBoundary(f"grid has too few s-layers for degree {degree}")
    x = solution.coords.reshape(-1, 2)
    f = field.reshape(-1)
    kept = range(ns)[hessian_rows] if hessian_rows is not None else range(0)
    m = (2 * half + 1) ** 2
    kept_index = np.empty((len(kept), nt, m), dtype=np.intp)
    kept_ops = np.empty((len(kept), nt, 3, m))
    grads = np.empty((ns, nt, 2))
    hesses = np.empty((ns, nt, 2, 2))
    cols = np.arange(nt)
    for i in range(ns):
        idx = _window_index(i, cols, ns, nt, half)                    # (nt, m)
        center = x[i * nt:(i + 1) * nt]
        ops = _derivative_rows(x[idx] - center[:, None, :], degree, _GRAD_HESS)
        d = (ops @ f[idx][..., None])[..., 0]                         # (nt, 5)
        grads[i] = d[:, :2]
        hesses[i] = _hessian(d[:, 2:])
        if i in kept:
            k = kept.index(i)
            kept_index[k], kept_ops[k] = idx, ops[:, 2:]
    if hessian_rows is None:
        return grads, hesses
    return grads, hesses, HessianRows(kept_index, kept_ops)


# ---------------------------------------------------------------------------
# radial profile recovery
# ---------------------------------------------------------------------------

def _profile_window(r: np.ndarray, u: np.ndarray, i: int, centre: float, degree: int):
    """(u', u'', u''') at centre from a polynomial fit on the window about sample i.

    The window holds 2*max(2, (degree+2)//2)+1 samples and shifts inward near
    the ends; offsets are scaled by their largest magnitude.
    """
    half = max(2, (degree + 2) // 2)
    width = 2 * half + 1
    if r.shape[0] < width:
        raise TooCloseToBoundary("too few radial samples for the fit window")
    lo = min(max(i - half, 0), r.shape[0] - width)
    rw = r[lo : lo + width] - centre
    scale = float(np.max(np.abs(rw))) or 1.0
    coeffs = np.polynomial.polynomial.polyfit(rw / scale, u[lo : lo + width], degree)
    uppp = 6.0 * coeffs[3] / scale**3 if degree >= 3 else 0.0
    return coeffs[1] / scale, 2.0 * coeffs[2] / scale**2, uppp


def radial_profile_fit(solution: RingSolution, degree: int = 3):
    """(up, upp, uppp) at every radius sample by sliding 1D polynomial fits."""
    r = solution.r
    jets = [_profile_window(r, solution.values, i, r[i], degree) for i in range(r.shape[0])]
    up, upp, uppp = np.array(jets).T.copy()
    return up, upp, uppp


# ---------------------------------------------------------------------------
# single-point API
# ---------------------------------------------------------------------------

def recover_jet(solution: RingSolution, point, order: int = 2) -> Jet:
    """Jet of the discrete solution at a physical point.

    order 2 fits a cubic, order 3 a quartic; the point must sit at least
    2 (order 2) or 3 (order 3) grid layers away from the boundaries.  Exact
    (to ~1e-11) when the solution samples a polynomial of degree order+1.
    """
    if order not in (2, 3):
        raise ValueError("recover_jet supports order 2 or 3")
    min_layers = _MIN_LAYERS[order]
    degree = order + 1
    if solution.kind == "radial":
        point = np.atleast_1d(np.asarray(point, dtype=float))
        if point.shape == (1,):
            x = np.zeros(solution.n)
            x[0] = point[0]
        else:
            x = point
        radius = float(np.linalg.norm(x))
        r = solution.r
        idx = int(round((radius - r[0]) / solution.h))
        if idx < min_layers or idx > r.shape[0] - 1 - min_layers:
            raise TooCloseToBoundary(
                f"point at r={radius:g} is within {min_layers} layers of the boundary"
            )
        up, upp, uppp = _profile_window(r, solution.values, idx, radius, degree)
        return radial_jet(x, up, upp, uppp if order >= 3 else None, order)

    # 2D ring: one expansion center, the window of the nearest node
    point = np.asarray(point, dtype=float)
    x = solution.coords
    ns, nt = solution.values.shape
    d2 = np.sum((x - point) ** 2, axis=-1)
    i0, j0 = np.unravel_index(int(np.argmin(d2)), d2.shape)
    if i0 < min_layers or i0 > ns - 1 - min_layers:
        raise TooCloseToBoundary(
            f"point maps to s-layer {i0}, within {min_layers} layers of the boundary"
        )
    idx = _window_index(int(i0), np.array([j0]), ns, nt, _half_width(degree))
    exps = _GRAD_HESS + (_THIRD if order >= 3 else ())
    ops = _derivative_rows(x.reshape(-1, 2)[idx] - point, degree, exps)[0]
    d = ops @ solution.values.reshape(-1)[idx[0]]
    grad, hess = d[:2], _hessian(d[2:5])
    if order < 3:
        return make_jet(grad, hess)
    # f_xxx, f_xxy, f_xyy, f_yyy: entry [a, b, c] is picked by its count of y's
    third = d[5 + np.indices((2, 2, 2)).sum(axis=0)]
    return make_jet(grad, hess, third)
