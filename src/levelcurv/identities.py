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
order-3 jets, which it aligns and seeds once, with kernels that are
elementwise over the batch, so a jet's residuals do not depend on the batch
it is in; the curvature matrix itself is the value of the seeded duals, so
the chart formula runs once per batch.  The master identity and the
psi-harmonicity residual take a closed-form supplier with a
``jet(point, order)`` method that gives order-4 jets, and push its jet at
each point once through the chart formula as duals of duals, seeded twice
along every axis.

All identity checks use the pre-flip sign convention of the curvature matrix,
because that is the convention the formulas are derived in.  phi needs a
positive definite matrix, so it reads the pre-flip entries under a per-jet
orientation sign s (-1 where the level set is convex toward -grad u): the
oriented matrix is s a, and phi = rho(t) + log(s^(n-1) det a).  One rule,
``_orientation``, gives every jet its sign and whether it is admissible
(strictly convex once oriented), and ``_phi`` is the one place phi is formed.
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
    rotate_jet,
)


def _matrix(entries: list) -> np.ndarray:
    """Nested lists of equally shaped entries as one (..., rows, cols) array;
    entries of shape (..., k) give (..., k, rows, cols)."""
    return np.stack([np.stack(row, axis=-1) for row in entries], axis=-2)


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


def _orientation(a0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orientation sign s and admissibility of each pre-flip curvature matrix
    of a batch (..., m, m).

    s is -1 where the largest eigenvalue is negative (the level set is convex
    toward -grad u, as for -u) and +1 elsewhere.  A jet is admissible where s a
    is positive definite and s^m det a > 0, so that phi is defined there.
    """
    eig = np.linalg.eigvalsh(a0)
    flip = eig[..., -1] < 0.0
    sign = np.where(flip, -1.0, 1.0)
    m = a0.shape[-1]
    det = det_entries([[a0[..., i, j] for j in range(m)] for i in range(m)]) * sign**m
    return sign, (flip | (eig[..., 0] > 0.0)) & (det > 0.0)


def _phi(t, a: list, sign: np.ndarray, spec: TestFunctionSpec):
    """phi = rho(t) + log(s^(n-1) det a) of seeded entries, t = |grad u|^2,
    under the per-jet sign s; meaningless where the jet is not admissible."""
    with np.errstate(divide="ignore", invalid="ignore"):  # log of det <= 0 off the mask
        return spec.rho(t) + dual_log(det_entries(a) * sign[..., None] ** len(a))


def _seeded_twice(jet: Jet, spec: TestFunctionSpec) -> tuple[list, Dual, np.ndarray, np.ndarray]:
    """Curvature entries a_ij, phi, the orientation sign and the admissible
    mask of a batch of order-4 jets, a_ij and phi as duals of duals seeded
    twice along every axis.

    Each jet entry is seeded as in ``_seeded``, and its value and derivative
    are themselves duals along the same axis, the derivative's own derivative
    holding the entry's second derivative along that axis.  One pass through
    the chart formula, ``det_entries`` and ``TestFunctionSpec.rho`` then
    gives, exactly, the first derivatives along every axis in ``.val.der``
    (a_ij,a and phi_a) and the second derivatives along each in ``.der.der``
    (phi_aa).  phi is read under each jet's own sign (``_orientation``), in
    the convention of ``identity_residuals``, and means nothing where the
    mask is False.
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
    sign, admissible = _orientation(_matrix([[e.val.val for e in row] for row in a])[..., 0, :, :])
    return a, _phi(sum(g * g for g in grad), a, sign, spec), sign, admissible


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

    The batch is aligned once and seeded once, along every axis; its a_ij,k
    serve the Codazzi, the u_iia and the phi-gradient checks, the last under
    a per-jet orientation sign.  Every kernel is elementwise over the batch,
    so a jet's residuals do not depend on the batch it is in.
    """
    aligned = align_frame(jet).aligned_jet
    grad, a_dual = _seeded(aligned)
    a0 = _matrix([[e.val for e in row] for row in a_dual])[..., 0, :, :]
    a_k = _matrix([[e.der for e in row] for row in a_dual])
    phi, admissible = _phi_residuals(a0, grad, a_dual, spec)
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


def _phi_residuals(
    a0: np.ndarray, grad: list, a_dual: list, spec: TestFunctionSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Residual of phi_a = sum a^{ij} a_ij,a + rho'(t) t_a per jet, maximized
    over axes, and the admissible mask of ``_orientation``.

    The left side differentiates phi (``_phi``) directly through the
    composite expression with dual numbers; the right side contracts
    (s a)^{-1} with s a_ij,a (Jacobi's formula), so the two sides share no
    linear algebra.  Entries that are not admissible are computed on a
    stand-in identity matrix and must be discarded by the caller.
    """
    m = len(a_dual)
    sign, admissible = _orientation(a0)
    oriented = np.where(admissible[..., None, None], sign[..., None, None] * a0, np.eye(m))
    oriented_inv = np.linalg.inv(oriented)
    t_dual = sum(g * g for g in grad)
    lhs = _phi(t_dual, a_dual, sign, spec).der
    s = sign[..., None]  # against the trailing axis of directions
    contraction = 0.0
    for i, j in itertools.product(range(m), repeat=2):
        contraction = contraction + oriented_inv[..., i, j, None] * (s * a_dual[i][j].der)
    rhs = contraction + spec.rho_prime(t_dual.val) * t_dual.der
    return np.max(np.abs(lhs - rhs), axis=-1), admissible


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
    batched solve.  Raises InvalidInstance, naming the row, for a row with
    min b_i < 1e-8: its quadratic form is near singular, and no bounded
    search reaches a maximizer that runs off to |X| ~ 1/b_i.
    """
    singular = np.flatnonzero(np.any(inst.b < 1e-8, axis=-1))
    if singular.size:
        k = int(singular[0])
        raise InvalidInstance(
            f"row {k}: min b_i = {np.min(inst.b[k]):.3g} < 1e-8, near-singular quadratic form")
    a = np.eye(inst.b.shape[1]) * inst.b[:, None, :] + inst.lam[:, None, None]
    rhs = 4.0 * inst.mu[:, None] * inst.c
    return inst.q(np.linalg.solve(2.0 * a, rhs[..., None])[..., 0])


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
    a, phi, sign, admissible = _seeded_twice(aligned0, spec)
    if not admissible or sign < 0.0:
        raise NonpositiveCurvature("level set not strictly convex toward grad u")
    m = n - 1
    un = float(aligned0.grad[-1])
    a_ii = -np.diag(aligned0.hess)[:m] / un
    a_inv = 1.0 / a_ii
    sigma1 = float(np.sum(a_ii))
    uni = aligned0.hess[:m, n - 1].copy()
    t0 = un * un
    rho_p = spec.rho_prime(t0)
    rho_pp = spec.rho_double_prime(t0)
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
    worst, first_sign = 0.0, None
    for p in np.atleast_2d(np.asarray(points, dtype=float)):
        jet0 = _supplier_jet(supplier, p, "a psi-harmonicity point")
        _require_minimal(jet0)
        aligned = align_frame(jet0).aligned_jet
        _, phi, sign, admissible = _seeded_twice(aligned, spec)
        first_sign = sign if first_sign is None else first_sign
        if not admissible or sign != first_sign:
            raise NonpositiveCurvature(
                f"level curve not strictly convex toward one side at {p.tolist()}")
        psi_aa = math.exp(phi.val.val[0]) * (phi.der.der + phi.val.der**2)
        un = aligned.grad[-1]
        worst = max(worst, abs(float(np.array([1.0 + un * un, 1.0]) @ psi_aa)))
    return worst
