"""Pointwise identity checks on exact fields.

Each residual pits two independent computations of the same quantity against
each other:

* the Codazzi symmetry of the curvature-matrix derivatives, computed both
  from the closed-form derivative expression and by exact (dual-number)
  differentiation of the chart formula (``geometry.chart_curvature_entries``,
  the one ``curvature_matrix(mode="raw")`` reads),
* the gradient identity for phi = rho(|grad u|^2) + log det(a), where the
  reference side is Jacobi's formula d(log det a) = tr(a^{-1} da),
* the third-derivative exchange relation u_iia = -u_n a_ii,a + 2 u_n^{-1}
  u_ni u_ia - u_na a_ii at aligned points,
* the full-strength master identity for the linearized minimal surface
  operator applied to phi, and the Laplace-Beltrami harmonicity of psi on 2D
  minimal graphs, with the derivatives of a and phi taken exactly from the
  order-4 jet of a closed-form supplier,
* the quadratic-polynomial bound Q <= 4 mu^2 Gamma, on batches of quadratics
  of one size.

The first three are evaluated by ``identity_residuals`` on a batch of
order-3 jets, which it aligns itself, with kernels that are elementwise over
the batch, so a jet's residuals do not depend on the batch it is in.  The
master identity and the psi-harmonicity residual take a closed-form supplier
with a ``jet(point, order)`` method that gives order-4 jets, and push its jet
at each point once through the chart formula as duals of duals, seeded twice
along every axis.

All identity checks use the pre-flip sign convention of the curvature matrix,
because that is the convention the formulas are derived in; the orientation
flip is a presentation device for user-facing K only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dual import Dual, dual_log
from .errors import (
    GradientTooSmall,
    InvalidInstance,
    NonpositiveCurvature,
    NotAMinimalJet,
)
from .geometry import (
    GRAD_FLOOR,
    Jet,
    TestFunctionSpec,
    align_frame,
    chart_curvature_entries,
    det_entries,
    level_curve_curvature_2d,
    rotate_jet,
)


def _matrix(entries: list) -> np.ndarray:
    """Nested lists of equally shaped entries as one (..., rows, cols) array;
    entries of shape (..., k) give (..., k, rows, cols)."""
    return np.stack([np.stack(row, axis=-1) for row in entries], axis=-2)


def curvature_entries_float(jet: Jet) -> np.ndarray:
    """Pre-flip curvature matrix from a jet with u_n > 0 (e.g. an aligned jet)."""
    n = jet.dim
    grad = [jet.grad[..., i] for i in range(n)]
    hess = [[jet.hess[..., i, j] for j in range(n)] for i in range(n)]
    return _matrix(chart_curvature_entries(grad, hess))


def _seeded(jet: Jet) -> tuple[list, list]:
    """Dual gradient and curvature entries of the jet, seeded along every axis.

    Each jet entry carries its derivatives along all n coordinates in the
    trailing axis of its ``der`` (so third derivatives feed the Hessian
    seeds); pushing the duals through the chart formula gives the exact
    chain-rule derivatives of a_ij along every axis, with no truncation
    error.  Values keep a trailing axis of length one.  A batch of jets is
    seeded in one pass.
    """
    if jet.third is None:
        raise ValueError("order-3 jet required to differentiate the curvature field")
    n = jet.dim
    grad = [Dual(jet.grad[..., al, None], jet.hess[..., al, :]) for al in range(n)]
    hess = [
        [Dual(jet.hess[..., al, be, None], jet.third[..., al, be, :]) for be in range(n)]
        for al in range(n)
    ]
    return grad, chart_curvature_entries(grad, hess)


def _seeded_twice(jet: Jet, spec: TestFunctionSpec, sign: float = 1.0) -> tuple[list, Dual]:
    """Curvature entries a_ij and phi = rho(|grad u|^2) + log(sign det a) of an
    order-4 jet, as duals of duals seeded twice along every axis.

    Each jet entry is seeded as in ``_seeded``, and its value and derivative
    are themselves duals along the same axis, the derivative's own derivative
    holding the entry's second derivative along that axis.  One pass through
    the chart formula, ``det_entries`` and ``_rho_dual`` then gives, exactly,
    the first derivatives along every axis in ``.val.der`` (a_ij,a and phi_a)
    and the second derivatives along each in ``.der.der`` (phi_aa).  Raises
    NonpositiveCurvature when sign det(a) <= 0 at the point.
    """
    if jet.fourth is None:
        raise ValueError("order-4 jet required for second derivatives of phi")
    n = jet.dim
    third_aa = np.diagonal(jet.third, axis1=-2, axis2=-1)  # u_i,aa
    fourth_aa = np.diagonal(jet.fourth, axis1=-2, axis2=-1)  # u_ij,aa

    def seed(val, der, der2):
        return Dual(Dual(val[..., None], der), Dual(der, der2))

    grad = [seed(jet.grad[..., i], jet.hess[..., i, :], third_aa[..., i, :]) for i in range(n)]
    hess = [[seed(jet.hess[..., i, j], jet.third[..., i, j, :], fourth_aa[..., i, j, :])
             for j in range(n)] for i in range(n)]
    a = chart_curvature_entries(grad, hess)
    det = det_entries(a) * sign
    if np.any(det.val.val <= 0.0):
        raise NonpositiveCurvature("det(a) <= 0 while forming phi")
    return a, _rho_dual(spec, sum(g * g for g in grad)) + dual_log(det)


@dataclass(frozen=True)
class CurvatureDerivatives:
    """Spatial derivatives a_ij,k of the curvature-matrix field, plus sigma1."""

    a_k: np.ndarray  # shape (..., n, n-1, n-1): derivative along each axis
    sigma1: float | np.ndarray


def curvature_derivatives(jet: Jet) -> CurvatureDerivatives:
    """a_ij,k of one jet or a batch of jets, from one seeding."""
    _, a = _seeded(jet)
    val = _matrix([[e.val[..., 0] for e in row] for row in a])
    return CurvatureDerivatives(
        a_k=_matrix([[e.der for e in row] for row in a]),
        sigma1=np.trace(val, axis1=-2, axis2=-1),
    )


# ---------------------------------------------------------------------------
# the batched identity engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityResiduals:
    """Residuals of the three pointwise identities, one entry per jet of a batch.

    ``admissible`` marks the jets whose level set is strictly convex at the
    point; the phi-gradient identity is checked only there, and ``phi`` is
    0.0 elsewhere.
    """

    codazzi: np.ndarray
    uiia: np.ndarray
    phi: np.ndarray
    admissible: np.ndarray


def identity_residuals(jet: Jet, spec: TestFunctionSpec) -> IdentityResiduals:
    """All three identity residuals of a batch of order-3 jets in one pass.

    The aligned batch is seeded once, along every axis, and its a_ij,k serve
    both the Codazzi and the u_iia checks; the convex-oriented batch is
    seeded once for the phi-gradient identity.  Every kernel is elementwise
    over the batch, so a jet's residuals do not depend on the batch it is in.
    """
    aligned = align_frame(jet).aligned_jet
    a0 = curvature_entries_float(aligned)
    a_k = curvature_derivatives(aligned).a_k
    oriented, b0, convex = _convex_oriented(jet, aligned, a0)
    phi, det_positive = _phi_residuals(oriented, b0, convex, spec)
    admissible = convex & det_positive
    return IdentityResiduals(
        codazzi=_codazzi_residuals(aligned, a_k),
        uiia=_uiia_residuals(aligned, a0, a_k),
        phi=np.where(admissible, phi, 0.0),
        admissible=admissible,
    )


# ---------------------------------------------------------------------------
# Codazzi symmetry
# ---------------------------------------------------------------------------


def codazzi_closed_form(jet: Jet) -> np.ndarray:
    """a_ij,k at an aligned point via the closed form
    -u_n^{-1} u_ijk + u_n^{-2} (u_ij u_kn + u_ik u_jn + u_jk u_in)."""
    n = jet.dim
    m = n - 1
    un = jet.grad[..., n - 1, None, None, None]
    h = jet.hess[..., :m, :m]
    hn = jet.hess[..., :m, n - 1]
    t = jet.third[..., :m, :m, :m]
    hn_i = hn[..., :, None, None]
    hn_j = hn[..., None, :, None]
    hn_k = hn[..., None, None, :]
    return -t / un + (
        h[..., :, :, None] * hn_k + h[..., :, None, :] * hn_j + h[..., None, :, :] * hn_i
    ) / (un * un)


def _field_form(a_k: np.ndarray) -> np.ndarray:
    """a_ij,k over the tangential axes k, from the derivatives along every axis."""
    return np.moveaxis(a_k[..., :-1, :, :], -3, -1)


def _commutator(t: np.ndarray) -> np.ndarray:
    return np.max(np.abs(t - np.swapaxes(t, -1, -2)), axis=(-3, -2, -1))


def _codazzi_residuals(aligned: Jet, a_k: np.ndarray) -> np.ndarray:
    """max |a_ij,k - a_ik,j| per aligned jet, worst of the closed form and the
    exact field derivative."""
    return np.maximum(
        _commutator(codazzi_closed_form(aligned)), _commutator(_field_form(a_k))
    )


# ---------------------------------------------------------------------------
# phi-gradient identity
# ---------------------------------------------------------------------------


def _rho_dual(spec: TestFunctionSpec, t: Dual) -> Dual:
    if spec.kind == "minimal-theta":
        return (dual_log(t) - dual_log(1.0 + t)) * spec.param
    return dual_log(t) * (0.5 * spec.param)


def _where_jet(mask: np.ndarray, a: Jet, b: Jet) -> Jet:
    """Jet of ``a`` where ``mask`` holds and of ``b`` elsewhere, per batch element."""

    def pick(x, y):
        return np.where(mask.reshape(mask.shape + (1,) * (x.ndim - mask.ndim)), x, y)

    return Jet(pick(a.grad, b.grad), pick(a.hess, b.hess), pick(a.third, b.third))


def _convex_oriented(
    jet: Jet, aligned: Jet, a0: np.ndarray
) -> tuple[Jet, np.ndarray, np.ndarray]:
    """Aligned jet of u or of -u, whichever has a positive definite pre-flip
    matrix, with that matrix and whether it is positive definite."""
    flip = np.linalg.eigvalsh(a0)[..., -1] < 0.0
    if np.any(flip):
        negated = align_frame(Jet(-jet.grad, -jet.hess, -jet.third)).aligned_jet
        aligned = _where_jet(flip, negated, aligned)
        a0 = np.where(flip[..., None, None], curvature_entries_float(negated), a0)
    return aligned, a0, np.linalg.eigvalsh(a0)[..., 0] > 0.0


def _phi_residuals(
    oriented: Jet, a0: np.ndarray, convex: np.ndarray, spec: TestFunctionSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Residual of phi_a = sum a^{ij} a_ij,a + rho'(t) t_a per jet, maximized
    over axes, and whether det(a) > 0 there.

    The left side differentiates phi = rho(t) + log det(a) directly through
    the composite expression with dual numbers; the right side contracts the
    matrix inverse with the field derivatives (Jacobi's formula), so the two
    sides share no linear algebra.

    Entries outside ``convex`` are computed on a stand-in identity matrix
    and must be discarded by the caller.
    """
    n = oriented.dim
    m = n - 1
    a0inv = np.linalg.inv(np.where(convex[..., None, None], a0, np.eye(m)))
    gnorm = oriented.grad[..., n - 1, None]
    t0 = gnorm * gnorm
    grad, a_dual = _seeded(oriented)
    t_dual = grad[0] * grad[0]
    for gi in grad[1:]:
        t_dual = t_dual + gi * gi
    det_dual = det_entries(a_dual)
    with np.errstate(divide="ignore", invalid="ignore"):  # det <= 0 off `convex`
        lhs = (_rho_dual(spec, t_dual) + dual_log(det_dual)).der
    contraction = 0.0
    for i, j in itertools.product(range(m), repeat=2):
        contraction = contraction + a0inv[..., i, j, None] * a_dual[i][j].der
    rhs = contraction + spec.rho_prime(t0) * t_dual.der
    return np.max(np.abs(lhs - rhs), axis=-1), det_dual.val[..., 0] > 0.0


# ---------------------------------------------------------------------------
# third-derivative exchange relation at aligned points
# ---------------------------------------------------------------------------


def _uiia_residuals(aligned: Jet, a0: np.ndarray, a_k: np.ndarray) -> np.ndarray:
    """max over i, a of |u_iia + u_n a_ii,a - 2 u_n^{-1} u_ni u_ia + u_na a_ii|."""
    n = aligned.dim
    diag = np.arange(n - 1)
    h = aligned.hess
    un = aligned.grad[..., n - 1, None, None]
    lhs = aligned.third[..., diag, diag, :]  # (..., i, a)
    rhs = (
        -un * np.swapaxes(a_k[..., :, diag, diag], -1, -2)
        + 2.0 / un * h[..., diag, n - 1, None] * h[..., diag, :]
        - h[..., None, n - 1, :] * a0[..., diag, diag, None]
    )
    return np.max(np.abs(lhs - rhs), axis=(-2, -1))


# ---------------------------------------------------------------------------
# quadratic-polynomial bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticBoundInstance:
    """A batch of B quadratics of one size m,
    Q(X) = -sum b_i X_i^2 - lam (sum X_i)^2 + 4 mu sum c_i X_i.

    ``lam`` and ``mu`` have shape (B,), ``b`` and ``c`` shape (B, m); scalars and
    length-m vectors give a batch of one.
    """

    lam: np.ndarray
    mu: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        c = np.atleast_2d(np.asarray(self.c, dtype=float))
        for name, value in (("lam", lam), ("mu", mu), ("b", b), ("c", c)):
            object.__setattr__(self, name, value)
        if np.any(lam < 0.0):
            raise InvalidInstance(f"lambda must be >= 0, got {lam[lam < 0.0][0]:g}")
        if b.shape != c.shape:
            raise InvalidInstance("b and c must have the same length")
        if lam.shape != mu.shape or lam.shape != b.shape[:1] or b.ndim != 2:
            raise InvalidInstance("lam and mu must hold one value per row of b and c")
        if np.any(b <= 0.0):
            raise InvalidInstance("all b_i must be positive")

    def q(self, x: np.ndarray) -> np.ndarray:
        """Q of each row at the points x of shape (B, m); shape (B,)."""
        x = np.asarray(x, dtype=float)
        return (
            -np.sum(self.b * x * x, axis=-1)
            - self.lam * np.sum(x, axis=-1) ** 2
            + 4.0 * self.mu * np.sum(self.c * x, axis=-1)
        )


@dataclass(frozen=True)
class QuadraticBoundResult:
    """Gamma and the bound 4 mu^2 Gamma of each row, shape (B,)."""

    gamma: np.ndarray
    bound: np.ndarray


def lemma_quadratic_bound(inst: QuadraticBoundInstance) -> QuadraticBoundResult:
    """Gamma = sum c_i^2/b_i - lam (1 + lam sum 1/b_i)^{-1} (sum c_i/b_i)^2;
    the bound 4 mu^2 Gamma dominates sup Q."""
    inv_b = 1.0 / inst.b
    coupling = inst.lam / (1.0 + inst.lam * np.sum(inv_b, axis=-1))
    gamma = np.sum(inst.c**2 * inv_b, axis=-1) - coupling * np.sum(inst.c * inv_b, axis=-1) ** 2
    return QuadraticBoundResult(gamma=gamma, bound=4.0 * inst.mu**2 * gamma)


def quadratic_max_oracle(inst: QuadraticBoundInstance) -> np.ndarray:
    """Independent maximization of each concave quadratic of the batch.

    Solves the stationarity systems 2 (diag(b) + lam 1 1^T) X = 4 mu c in one
    batched solve; a row with min b_i < 1e-8 (a near-singular quadratic form)
    is instead maximized by dense grid search on [-10, 10]^m.
    """
    m = inst.b.shape[1]
    singular = np.any(inst.b < 1e-8, axis=-1)
    rows = ~singular
    a = np.eye(m) * inst.b[rows, None, :] + inst.lam[rows, None, None]
    rhs = 4.0 * inst.mu[rows, None] * inst.c[rows]
    x_star = np.zeros_like(inst.b)
    x_star[rows] = np.linalg.solve(2.0 * a, rhs[..., None])[..., 0]
    out = inst.q(x_star)
    if np.any(singular):
        pts_per_dim = 41 if m <= 3 else 9
        axes = [np.linspace(-10.0, 10.0, pts_per_dim)] * m
        x = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
        s = x.sum(axis=1)
        for k in np.flatnonzero(singular):
            q = -(x * x) @ inst.b[k] - inst.lam[k] * s * s + 4.0 * inst.mu[k] * (x @ inst.c[k])
            out[k] = np.max(q)
    return out


def random_quadratic_instances(rng: np.random.Generator, count: int) -> list:
    """``count`` random instances as one batch per size m, in increasing m.

    The sizes (m in 1..6) are drawn first, as one array; then each size, in
    increasing m, draws its rows' lam, mu, b and c, one array each.
    """
    sizes = rng.integers(1, 7, size=count)
    batches = []
    for m in np.unique(sizes):
        rows = int(np.count_nonzero(sizes == m))
        batches.append(QuadraticBoundInstance(
            rng.uniform(0.0, 3.0, size=rows),
            rng.uniform(-2.0, 2.0, size=rows),
            rng.uniform(0.1, 5.0, size=(rows, m)),
            rng.uniform(-3.0, 3.0, size=(rows, m)),
        ))
    return batches


# ---------------------------------------------------------------------------
# master identity for the minimal surface operator
# ---------------------------------------------------------------------------

MINIMAL_RESIDUAL_LIMIT = 1e-8


def minimal_equation_residual(jet: Jet) -> float:
    """Residual of div(grad u / sqrt(1 + |grad u|^2)) from an order-2 jet."""
    g = jet.grad
    h = jet.hess
    w2 = 1.0 + float(g @ g)
    f_contract = w2 * float(np.trace(h)) - float(g @ h @ g)
    return f_contract / w2**1.5


def _require_minimal(jet: Jet) -> None:
    eq_res = minimal_equation_residual(jet)
    if abs(eq_res) > MINIMAL_RESIDUAL_LIMIT:
        raise NotAMinimalJet(f"minimal equation residual {eq_res:.3e} at the point")


def _supplier_jet(supplier, point: np.ndarray, where: str) -> Jet:
    """Order-4 jet of a closed-form supplier, with |grad u| above the floor."""
    jet = supplier.jet(point, order=4)
    if jet.grad_norm < GRAD_FLOOR:
        raise GradientTooSmall(f"gradient below floor at {where}")
    return jet


def _diagonalized(jet: Jet) -> Jet:
    """The jet in the frame that aligns the gradient and diagonalizes the
    tangential Hessian."""
    frame = align_frame(Jet(jet.grad, jet.hess))  # the rotation needs no higher derivatives
    n = jet.dim
    ht = frame.aligned_jet.hess[: n - 1, : n - 1]
    _, vecs = np.linalg.eigh((ht + ht.T) / 2.0)
    r2 = np.eye(n)
    r2[: n - 1, : n - 1] = vecs.T
    return rotate_jet(jet, r2 @ frame.rotation)


def minimal_master_identity_residual(supplier, point, theta: float) -> float:
    """|LHS - RHS| of the second-order identity for F^{ab} phi_ab on a minimal jet.

    LHS is sum_a F^{aa} phi_aa (F is diagonal in the normalized frame) and RHS
    is the expanded right-hand side in terms of a_ij, its first derivatives,
    u_ni, sigma1 and grad phi, with rho(t) = theta (log t - log(1+t)).
    The derivatives of a and phi are exact: the supplier's order-4 jet, taken
    to that frame, goes once through ``_seeded_twice``.
    """
    spec = TestFunctionSpec.minimal_theta(theta)
    jet0 = _supplier_jet(supplier, np.asarray(point, dtype=float), "the master-identity point")
    _require_minimal(jet0)

    n = jet0.dim
    aligned0 = _diagonalized(jet0)
    m = n - 1
    un = float(aligned0.grad[-1])
    diag = np.diag(aligned0.hess)[:m]
    if np.max(diag) >= 0.0:
        raise NonpositiveCurvature(
            "tangential Hessian not negative definite: level set not strictly convex"
        )
    a_ii = -diag / un
    a_inv = 1.0 / a_ii
    sigma1 = float(np.sum(a_ii))
    uni = aligned0.hess[:m, n - 1].copy()
    t0 = un * un
    rho_p = spec.rho_prime(t0)
    rho_pp = spec.rho_double_prime(t0)
    a, phi = _seeded_twice(aligned0, spec)
    phi1, phi2 = phi.val.der, phi.der.der
    a_der = _matrix([[e.val.der for e in row] for row in a])  # (axis, i, j)

    f_diag = np.full(n, 1.0 + un * un)
    f_diag[n - 1] = 1.0
    lhs = float(f_diag @ phi2)

    tang = a_der[:m]  # derivatives along tangential axes
    norm_der = a_der[n - 1]  # derivatives along the normal axis
    aij_sq_tang = 0.0
    for k in range(m):
        aij_sq_tang += float(np.sum(np.outer(a_inv, a_inv) * tang[k] ** 2))
    aij_sq_norm = float(np.sum(np.outer(a_inv, a_inv) * norm_der**2))

    t1 = -(1.0 + un * un) * aij_sq_tang
    t2 = -aij_sq_norm
    t3 = 4.0 * float(np.trace(norm_der))
    t4 = 4.0 / un * float(np.sum(a_inv * uni * np.array([np.trace(tang[i]) for i in range(m)])))
    t5 = ((2.0 * rho_p * t0 - n - 1.0) + (2.0 * rho_p * t0 - n + 1.0) * t0) * float(
        np.sum(a_ii**2)
    )
    t6 = (
        (6.0 * rho_p * t0 + 4.0 * rho_pp * t0 * t0)
        + (8.0 * rho_p * t0 + 4.0 * rho_pp * t0 * t0 - n + 3.0) / t0
    ) * float(np.sum(uni**2))
    t7 = (
        4.0 * rho_pp * t0 * t0 * (1.0 + t0) ** 2
        + 6.0 * rho_p * t0 * (1.0 + t0) ** 2
        + 2.0
    ) * sigma1**2
    t8 = -2.0 / t0 * sigma1 * float(np.sum(a_inv * uni**2))
    t9 = -2.0 / un * float(np.sum(uni * phi1[:m])) - 2.0 * sigma1 * phi1[n - 1]

    rhs = t1 + t2 + t3 + t4 + t5 + t6 + t7 + t8 + t9
    return float(abs(lhs - rhs))


# ---------------------------------------------------------------------------
# Laplace-Beltrami harmonicity of psi on 2D minimal graphs (closed form)
# ---------------------------------------------------------------------------


def lb_psi_residual_2d(supplier, points, theta: float = -0.5) -> float:
    """max |sum F^{ab} psi_ab| over sample points, psi = (t/(1+t))^theta * k.

    Every sample point must carry a minimal jet (NotAMinimalJet otherwise):
    off minimal graphs the residual proves nothing.  Works in the frame
    aligned at each sample point, where F is diagonal, and reads
    psi_aa = psi (phi_aa + phi_a^2) from the exact phi_a and phi_aa of the
    supplier's order-4 jet.  The level-curve curvature k takes one global
    sign, that of the first sample point, and a point where it is not
    positive raises NonpositiveCurvature.
    """
    spec = TestFunctionSpec.minimal_theta(theta)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    jet_first = supplier.jet(points[0], order=2)
    k0 = level_curve_curvature_2d(jet_first.grad[None, :], jet_first.hess[None, :, :])[0]
    if k0 == 0.0:
        raise NonpositiveCurvature("level curve is flat at the first sample point")
    sign = math.copysign(1.0, k0)

    worst = 0.0
    for p in points:
        jet0 = _supplier_jet(supplier, p, "a psi-harmonicity point")
        _require_minimal(jet0)
        aligned = align_frame(jet0).aligned_jet
        _, phi = _seeded_twice(aligned, spec, sign)
        psi_aa = math.exp(phi.val.val[0]) * (phi.der.der + phi.val.der**2)
        un = aligned.grad[-1]
        worst = max(worst, abs(float(np.array([1.0 + un * un, 1.0]) @ psi_aa)))
    return worst
