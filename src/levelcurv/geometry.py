"""Pointwise differential geometry of level sets.

Everything here is a pure function of a jet (point values of the derivatives
of a scalar field u up to fourth order).  The central object is the symmetric
curvature matrix a of the level hypersurface {u = const}: its eigenvalues are
the principal curvatures and det(a) the Gaussian curvature K.

Two charts are supported:

* raw      -- the matrix is assembled directly from the jet in the given
              coordinates (requires u_n != 0),
* aligned  -- the jet is first rotated so grad u = (0, ..., 0, |grad u|);
              there the matrix collapses to -(tangential Hessian)/u_n.

The raw chart formula is written once, in ``chart_curvature_entries``, on
scalar entries: ``curvature_matrix(mode="raw")`` feeds it floats and the
identity engine feeds it batches and dual numbers.  Principal curvatures come
from numpy's symmetric eigensolver, and K from the cofactor expansion in
``det_entries`` up to 3x3 (from LAPACK above).

Sign convention: the raw formula produces a matrix that is positive definite
when the level set is convex with respect to the upward normal grad u.  Fields
that grow away from their convex level sets (e.g. the outward-increasing
catenoid) produce a negative definite matrix instead; we then negate it and
record the flip, so that a strictly convex level set always reports K > 0 and
log K is well defined.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dual import dual_sqrt
from .errors import DegenerateChart, GradientTooSmall

GRAD_FLOOR = 1e-8


# ---------------------------------------------------------------------------
# jets and frames
# ---------------------------------------------------------------------------

def _symmetrize_matrix(m: np.ndarray) -> np.ndarray:
    return (m + np.swapaxes(m, -1, -2)) / 2.0


def _fsum(terms: list) -> np.ndarray:
    """Elementwise ``math.fsum`` of equally shaped arrays of finite floats.

    The terms are grown into a nonoverlapping expansion by error-free TwoSum
    steps, which is then rounded from its largest part down the way
    ``math.fsum`` rounds its partials, half-even ties across parts included.
    So each element is the correctly rounded sum of its terms.
    """
    parts: list = []
    for x in terms:
        grown = []
        for p in parts:
            hi = x + p
            virt = hi - x
            grown.append((x - (hi - virt)) + (p - virt))
            x = hi
        parts = grown + [x]
    hi = parts[-1]
    lo = np.zeros_like(hi)
    below = np.zeros_like(hi)  # largest nonzero part under the first inexact step
    exact = np.ones(np.shape(hi), dtype=bool)
    for p in reversed(parts[:-1]):
        below = np.where(~exact & (below == 0.0), p, below)
        total = hi + p
        err = p - (total - hi)
        hi = np.where(exact, total, hi)
        lo = np.where(exact, err, lo)
        exact &= err == 0.0
    doubled = hi + 2.0 * lo
    tie = (np.sign(lo) * np.sign(below) > 0.0) & (doubled - hi == 2.0 * lo)
    return np.where(tie, doubled, hi) + 0.0  # a zero sum is +0.0, as math.fsum gives it


@functools.cache
def _index_groups(n: int, order: int) -> tuple:
    """Index tables of the permutation groups of the sorted index tuples of an order.

    ``slots[s, g]`` is the s-th permutation of group g (padded with its first
    one, and masked off by ``used``, past the group's size), ``sizes[g]`` is
    the group's size and ``group_of[i, j, ...]`` the group holding (i, j, ...).
    """
    groups = [sorted(set(itertools.permutations(index)))
              for index in itertools.combinations_with_replacement(range(n), order)]
    width = max(len(g) for g in groups)
    slots = np.array([[g[s] if s < len(g) else g[0] for g in groups] for s in range(width)])
    used = np.array([[s < len(g) for g in groups] for s in range(width)])
    sizes = np.array([float(len(g)) for g in groups])
    group_of = np.empty((n,) * order, dtype=int)
    for index, g in enumerate(groups):
        for perm in g:
            group_of[perm] = index
    for table in (slots, used, sizes, group_of):
        table.flags.writeable = False
    return slots, used, sizes, group_of


def _symmetrize(t: np.ndarray, order: int) -> np.ndarray:
    # One correctly rounded mean per sorted index tuple of the trailing
    # ``order`` axes, assigned to every permutation, so the result is bitwise
    # symmetric.  The permutation groups are padded with zeros to the largest
    # size, which leaves each correctly rounded sum unchanged, so one _fsum
    # covers them all.
    slots, used, sizes, group_of = _index_groups(t.shape[-1], order)
    terms = [np.where(ok, t[(Ellipsis, *idx.T)], 0.0) for idx, ok in zip(slots, used)]
    return (_fsum(terms) / sizes)[..., group_of]


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis.

    The matmul runs the per-vector BLAS dot that ``np.linalg.norm`` runs, so
    a vector gets the same bits alone as inside any batch.
    """
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


@dataclass(frozen=True)
class Jet:
    """Derivatives of a scalar field at one point, up to fourth order.

    grad has shape (n,), hess (n, n) exactly symmetric, third (n, n, n) and
    fourth (n, n, n, n) exactly symmetric under all index permutations (or
    None when the jet stops at a lower order; fourth needs third).  Leading
    axes, shared by all four, make a batch of jets: grad (..., n), hess
    (..., n, n), and so on.
    """

    grad: np.ndarray
    hess: np.ndarray
    third: np.ndarray | None = None
    fourth: np.ndarray | None = None

    def __post_init__(self):
        grad = np.asarray(self.grad, dtype=float)
        hess = np.asarray(self.hess, dtype=float)
        object.__setattr__(self, "grad", grad)
        object.__setattr__(self, "hess", hess)
        if grad.ndim == 0:
            raise ValueError("jets require a gradient vector")
        n = grad.shape[-1]
        batch = grad.shape[:-1]
        if n < 2:
            raise ValueError("jets require dimension n >= 2")
        if n > 9:
            raise ValueError("frames with n - 1 > 8 are out of scope")
        if hess.shape != batch + (n, n):
            raise ValueError(f"hess shape {hess.shape} does not match n={n}")
        if not np.array_equal(hess, np.swapaxes(hess, -1, -2)):
            raise ValueError("hess must be exactly symmetric")
        if self.fourth is not None and self.third is None:
            raise ValueError("a fourth-order jet needs its third derivatives")
        for name, order in (("third", 3), ("fourth", 4)):
            if getattr(self, name) is None:
                continue
            t = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, t)
            if t.shape != batch + (n,) * order:
                raise ValueError(f"{name} shape {t.shape} does not match n={n}")
            # the swaps of neighbouring index axes generate every permutation
            if not all(np.array_equal(t, np.swapaxes(t, -k, -k - 1)) for k in range(1, order)):
                raise ValueError(f"{name} must be symmetric under index permutations")

    @property
    def dim(self) -> int:
        return self.grad.shape[-1]

    @property
    def grad_norm(self):
        """|grad u|: a float for one jet, an array over a batch."""
        norm = _norm(self.grad)
        return float(norm) if norm.ndim == 0 else norm


def make_jet(grad, hess, third=None, fourth=None) -> Jet:
    """Build a Jet, symmetrizing hess/third/fourth so the exact-equality invariant holds."""
    hess = _symmetrize_matrix(np.asarray(hess, dtype=float))
    if third is not None:
        third = _symmetrize(np.asarray(third, dtype=float), 3)
    if fourth is not None:
        fourth = _symmetrize(np.asarray(fourth, dtype=float), 4)
    return Jet(np.asarray(grad, dtype=float), hess, third, fourth)


def rotate_jet(jet: Jet, q: np.ndarray) -> Jet:
    """Covariant transform of a jet under y = Q x (grad -> Q grad, etc.).

    A batch of jets takes one rotation or a batch of rotations (..., n, n).
    """
    grad = (q @ jet.grad[..., None])[..., 0]
    hess = _symmetrize_matrix(q @ jet.hess @ np.swapaxes(q, -1, -2))
    third = fourth = None
    if jet.third is not None:
        third = np.einsum("...ai,...bj,...ck,...ijk->...abc", q, q, q, jet.third)
        third = _symmetrize(third, 3)
    if jet.fourth is not None:
        fourth = np.einsum("...ai,...bj,...ck,...dl,...ijkl->...abcd", q, q, q, q, jet.fourth)
        fourth = _symmetrize(fourth, 4)
    return Jet(grad, hess, third, fourth)


@dataclass(frozen=True)
class LevelSetFrame:
    """Orthogonal change of coordinates putting grad u on the last axis."""

    rotation: np.ndarray
    aligned_jet: Jet


def _plane_rotation(n: int, k: int, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rotations by (c, s) in the (k, n-1) plane, one per element of c."""
    rot = np.broadcast_to(np.eye(n), c.shape + (n, n)).copy()
    rot[..., k, k] = c
    rot[..., k, n - 1] = -s
    rot[..., n - 1, k] = s
    rot[..., n - 1, n - 1] = c
    return rot


def align_frame(jet: Jet) -> LevelSetFrame:
    """Rotate coordinates so the gradient becomes (0, ..., 0, |grad|).

    Built from a deterministic sequence of Givens rotations in the (k, n)
    planes, with a final 180-degree rotation in the (1, n) plane if needed to
    make the last component positive.  A batch of jets is aligned
    elementwise: each jet gets the same rotation it gets alone.

    Raises GradientTooSmall when |grad| < 1e-8: the theorems assume a
    nonvanishing gradient and silently regularizing would mask that.
    """
    n = jet.dim
    gnorm = _norm(jet.grad)
    if np.any(gnorm < GRAD_FLOOR):
        raise GradientTooSmall(f"|grad| = {np.min(gnorm):.3e} below floor {GRAD_FLOOR:.0e}")
    g = jet.grad / gnorm[..., None]
    q = np.broadcast_to(np.eye(n), gnorm.shape + (n, n))
    for k in range(n - 1):
        gk, gn = g[..., k], g[..., n - 1]
        r = np.hypot(gk, gn)
        skip = gk == 0.0  # nothing to rotate (this includes r == 0)
        r = np.where(skip, 1.0, r)
        rot = _plane_rotation(n, k, np.where(skip, 1.0, gn / r), np.where(skip, 0.0, gk / r))
        q = rot @ q
        g = (rot @ g[..., None])[..., 0]
    flip = g[..., n - 1] < 0.0
    half_turn = _plane_rotation(n, 0, np.where(flip, -1.0, 1.0), np.zeros(flip.shape))
    q = half_turn @ q
    aligned = rotate_jet(jet, q)
    # Pin the rounding dust so downstream aligned-point formulas are exact.
    grad = np.zeros_like(aligned.grad)
    grad[..., n - 1] = gnorm
    aligned = Jet(grad, aligned.hess, aligned.third, aligned.fourth)
    return LevelSetFrame(rotation=q, aligned_jet=aligned)


# ---------------------------------------------------------------------------
# generic entry formulas (floats, arrays over a batch, or Duals of either)
# ---------------------------------------------------------------------------

def _dot(xs, ys):
    """Left-to-right sum of the products x_k y_k over the shorter sequence."""
    acc = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        acc = acc + x * y
    return acc


def det_entries(a):
    """Cofactor expansion of a 1x1, 2x2 or 3x3 matrix given by its entries a[i][j]."""
    m = len(a)
    if m == 1:
        return a[0][0]
    if m == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    if m == 3:
        return (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )
    raise ValueError("determinant expansion implemented for sizes 1-3")


def sym_det(a: np.ndarray) -> float:
    """Determinant: the cofactor expansion up to 3x3, LAPACK above."""
    return float(det_entries(a)) if a.shape[0] <= 3 else float(np.linalg.det(a))


def _h_entries(grad, hess) -> list:
    """Entries h_ij = u_n^2 u_ij + u_nn u_i u_j - u_n u_j u_in - u_n u_i u_jn, i, j < n.

    The unnormalized second fundamental form: that of the level set is
    b_ij = -|u_n| h_ij / (|grad u| u_n^3), so the sign of h relative to u_n
    encodes convexity with respect to the chosen normal.
    """
    n = len(grad)
    un = grad[n - 1]
    return [[un * un * hess[i][j]
             + hess[n - 1][n - 1] * grad[i] * grad[j]
             - un * grad[j] * hess[i][n - 1]
             - un * grad[i] * hess[j][n - 1]
             for j in range(n - 1)] for i in range(n - 1)]


def chart_curvature_entries(grad, hess) -> list:
    """Level-set curvature matrix entries a[i][j] in the raw chart with u_n > 0.

    a = (-h + (g hg^T + hg g^T)/d - g g^T (g . hg)/d^2) / (|grad u| u_n^2) with
    g = (u_1, ..., u_{n-1}), hg = h g, W = |grad u|/u_n and d = W (1 + W) u_n^2.
    Works elementwise over any entry type supporting +, -, *, / and
    dual_sqrt (floats, arrays over a batch, and Duals of either); the
    entries are symmetric up to rounding.  The formula is odd in u, so a
    u_n < 0 chart reads it on -u and negates the result.
    """
    un = grad[len(grad) - 1]
    norm = dual_sqrt(_dot(grad, grad))
    w = norm / un
    h = _h_entries(grad, hess)
    hg = [_dot(row, grad) for row in h]
    quad = _dot(hg, grad)
    denom = w * (1.0 + w) * un * un
    scale = norm * un * un
    return [[(-h[i][j] + (grad[i] * hg[j] + grad[j] * hg[i]) / denom
              - grad[i] * grad[j] * quad / (denom * denom)) / scale
             for j in range(len(h))] for i in range(len(h))]


# ---------------------------------------------------------------------------
# curvature matrices
# ---------------------------------------------------------------------------

def graph_curvature_matrix(v_grad: np.ndarray, v_hess: np.ndarray) -> np.ndarray:
    """Curvature matrix of the graph x_n = v(x') with respect to the upward normal.

    a_il = (1/W) { v_il - v_i v_j v_jl / (W(1+W)) - v_l v_k v_ki / (W(1+W))
                   + v_i v_l v_j v_k v_jk / (W^2 (1+W)^2) },   W = sqrt(1+|grad v|^2).

    Its eigenvalues are the principal curvatures of the graph.
    """
    v_grad = np.asarray(v_grad, dtype=float)
    v_hess = np.asarray(v_hess, dtype=float)
    w = math.sqrt(1.0 + float(v_grad @ v_grad))
    hv = v_hess @ v_grad                      # (H v)_i = v_k v_ki
    quad = float(v_grad @ hv)                 # v_j v_k v_jk
    a = (
        v_hess
        - (np.outer(v_grad, hv) + np.outer(hv, v_grad)) / (w * (1.0 + w))
        + np.outer(v_grad, v_grad) * quad / (w * (1.0 + w)) ** 2
    ) / w
    return _symmetrize_matrix(a)


@dataclass(frozen=True)
class CurvatureData:
    """Curvature package of one level-set point.

    ``a`` and the derived quantities use the geometric orientation: if the raw
    matrix came out negative definite it was negated and ``flipped`` records
    that, so strictly convex level sets always have positive definite ``a``
    and K > 0.
    """

    a: np.ndarray
    principal: np.ndarray
    gauss: float
    flipped: bool

    @property
    def a_raw(self) -> np.ndarray:
        """Curvature matrix before the orientation flip."""
        return -self.a if self.flipped else self.a


def _orient(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    kappa = np.linalg.eigvalsh(a)
    if kappa[-1] < 0.0:  # negative definite: flip to the geometric convention
        return -a, -kappa[::-1], True
    return a, kappa, False


def curvature_matrix(jet: Jet, mode: str = "aligned") -> CurvatureData:
    """Full curvature data of the level set through a point.

    mode="aligned" rotates the jet first (works whenever |grad| is above the
    floor); mode="raw" evaluates the chart formula directly and requires
    u_n != 0 in the given coordinates.
    """
    gnorm = jet.grad_norm
    if gnorm < GRAD_FLOOR:
        raise GradientTooSmall(f"|grad| = {gnorm:.3e} below floor {GRAD_FLOOR:.0e}")
    if mode == "raw":
        un = float(jet.grad[-1])
        if un == 0.0:
            raise DegenerateChart("u_n = 0 in raw mode; align first")
        sign = math.copysign(1.0, un)
        a_pre = sign * _symmetrize_matrix(
            np.array(chart_curvature_entries(sign * jet.grad, sign * jet.hess)))
    elif mode == "aligned":
        frame = align_frame(Jet(jet.grad, jet.hess))  # the matrix needs no third derivatives
        a_pre = -frame.aligned_jet.hess[: jet.dim - 1, : jet.dim - 1] / gnorm
    else:
        raise ValueError(f"unknown mode {mode!r}")
    a, kappa, flipped = _orient(a_pre)
    gauss = sym_det(a)
    return CurvatureData(a=a, principal=kappa, gauss=gauss, flipped=flipped)


# ---------------------------------------------------------------------------
# weighted test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunctionSpec:
    """Weight attached to the Gaussian curvature in the boundary-extremum checks.

    kind="minimal-theta":  psi = (t/(1+t))^theta * K,  rho(t) = theta*(log t - log(1+t))
    kind="poisson-power":  psi = t^(p/2) * K,          rho(t) = (p/2) * log t

    with t = |grad u|^2, so that log psi = rho(t) + log K always.
    """

    __test__ = False  # despite the name, not a pytest fixture

    kind: str
    param: float

    @staticmethod
    def minimal_theta(theta: float) -> "TestFunctionSpec":
        return TestFunctionSpec("minimal-theta", float(theta))

    @staticmethod
    def poisson_power(power: float) -> "TestFunctionSpec":
        return TestFunctionSpec("poisson-power", float(power))

    def rho(self, t):
        if self.kind == "minimal-theta":
            return self.param * (np.log(t) - np.log1p(t))
        return 0.5 * self.param * np.log(t)

    def rho_prime(self, t):
        if self.kind == "minimal-theta":
            return self.param * (1.0 / t - 1.0 / (1.0 + t))
        return 0.5 * self.param / t

    def rho_double_prime(self, t):
        if self.kind == "minimal-theta":
            return self.param * (-1.0 / t**2 + 1.0 / (1.0 + t) ** 2)
        return -0.5 * self.param / t**2

    def weight(self, t):
        if self.kind == "minimal-theta":
            return (t / (1.0 + t)) ** self.param
        return t ** (0.5 * self.param)

    def describe(self) -> str:
        if self.kind == "minimal-theta":
            return f"(t/(1+t))^{self.param:g} K"
        return f"|grad u|^{self.param:g} K"


def weighted_curvature(spec: TestFunctionSpec, grad_norm_sq, gauss):
    """psi = weight(|grad u|^2) * K.  Accepts scalars or arrays."""
    t = np.asarray(grad_norm_sq, dtype=float)
    if np.any(t <= 0.0):
        raise GradientTooSmall("weighted curvature needs |grad u|^2 > 0")
    out = spec.weight(t) * np.asarray(gauss, dtype=float)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# vectorized 2D curvature (hot path of the 2D theorem checks)
# ---------------------------------------------------------------------------

def level_curve_curvature_2d(grads: np.ndarray, hesses: np.ndarray) -> np.ndarray:
    """Signed curvature of 2D level curves w.r.t. the normal grad u / |grad u|.

    kappa = -(u_xx u_y^2 - 2 u_x u_y u_xy + u_yy u_x^2) / |grad u|^3.

    This is the chart-free value of the 1x1 curvature matrix before the
    orientation flip; positive means convex toward grad u.  Vectorized over
    leading axes; agreement with curvature_matrix is covered by tests.
    """
    gx = grads[..., 0]
    gy = grads[..., 1]
    uxx = hesses[..., 0, 0]
    uxy = hesses[..., 0, 1]
    uyy = hesses[..., 1, 1]
    norm = np.sqrt(gx * gx + gy * gy)
    return -(uxx * gy * gy - 2.0 * gx * gy * uxy + uyy * gx * gx) / norm**3
