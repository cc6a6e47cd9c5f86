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
  operator applied to phi, with derivatives of a and phi taken by sixth-order
  central differences on a closed-form supplier,
* the quadratic-polynomial bound Q <= 4 mu^2 Gamma.

The first three take the order-3 jet at the point and align it themselves.
``identity_residuals`` evaluates them over a batch of jets with kernels that
are elementwise over the batch, and the single-jet functions run the same
kernels on a batch of one.  The finite-difference checks take a closed-form
supplier with a ``jet(point, order)`` method.

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
    sym_det,
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


def _batch_of_one(jet: Jet) -> Jet:
    third = None if jet.third is None else jet.third[None]
    return Jet(jet.grad[None], jet.hess[None], third)


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


def codazzi_field_form(jet: Jet) -> np.ndarray:
    """a_ij,k by exact differentiation of the curvature-matrix field."""
    return _field_form(curvature_derivatives(jet).a_k)


def _field_form(a_k: np.ndarray) -> np.ndarray:
    """a_ij,k over the tangential axes k, from the derivatives along every axis."""
    return np.moveaxis(a_k[..., :-1, :, :], -3, -1)


def _commutator(t: np.ndarray) -> np.ndarray:
    return np.max(np.abs(t - np.swapaxes(t, -1, -2)), axis=(-3, -2, -1))


def _codazzi_residuals(aligned: Jet, a_k: np.ndarray) -> np.ndarray:
    return np.maximum(
        _commutator(codazzi_closed_form(aligned)), _commutator(_field_form(a_k))
    )


def codazzi_residual(jet: Jet) -> float:
    """max |a_ij,k - a_ik,j| in the frame aligned at the point of an order-3
    jet, worst of the two routes."""
    aligned = align_frame(_batch_of_one(jet)).aligned_jet
    return float(_codazzi_residuals(aligned, curvature_derivatives(aligned).a_k)[0])


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
    """phi-gradient residual per jet, and whether det(a) > 0 there.

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


def phi_gradient_identity_residual(jet: Jet, spec: TestFunctionSpec) -> float:
    """Residual of phi_a = sum a^{ij} a_ij,a + rho'(t) t_a, maximized over axes.

    The left side differentiates phi = rho(t) + log det(a) directly through
    the composite expression with dual numbers; the right side contracts the
    matrix inverse with the field derivatives (Jacobi's formula), so the two
    sides share no linear algebra.  Raises NonpositiveCurvature when the
    level set is not strictly convex at the point.
    """
    jet = _batch_of_one(jet)
    aligned = align_frame(jet).aligned_jet
    oriented, a0, convex = _convex_oriented(jet, aligned, curvature_entries_float(aligned))
    if not convex[0]:
        raise NonpositiveCurvature(
            "level set not strictly convex at the point (eigenvalues "
            f"{np.array2string(np.linalg.eigvalsh(a0[0]), precision=3)})"
        )
    phi, det_positive = _phi_residuals(oriented, a0, convex, spec)
    if not det_positive[0]:
        raise NonpositiveCurvature("det(a) <= 0 while forming log K")
    return float(phi[0])


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


def uiia_residual(jet: Jet) -> float:
    """Residual of u_iia = -u_n a_ii,a + 2 u_n^{-1} u_ni u_ia - u_na a_ii.

    All ingredients come from the order-3 jet, taken to the frame aligned at
    its point; a_ii and a_ii,a use the pre-flip sign convention the relation
    is derived in.
    """
    aligned = align_frame(_batch_of_one(jet)).aligned_jet
    a0 = curvature_entries_float(aligned)
    return float(_uiia_residuals(aligned, a0, curvature_derivatives(aligned).a_k)[0])


# ---------------------------------------------------------------------------
# quadratic-polynomial bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticBoundInstance:
    """Q(X) = -sum b_i X_i^2 - lam (sum X_i)^2 + 4 mu sum c_i X_i."""

    lam: float
    mu: float
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if self.lam < 0.0:
            raise InvalidInstance(f"lambda must be >= 0, got {self.lam:g}")
        if b.shape != c.shape:
            raise InvalidInstance("b and c must have the same length")
        if np.any(b <= 0.0):
            raise InvalidInstance("all b_i must be positive")

    def q(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(
            -np.sum(self.b * x * x) - self.lam * np.sum(x) ** 2 + 4.0 * self.mu * np.sum(self.c * x)
        )


@dataclass(frozen=True)
class QuadraticBoundResult:
    gamma: float
    bound: float


def lemma_quadratic_bound(inst: QuadraticBoundInstance) -> QuadraticBoundResult:
    """Gamma = sum c_i^2/b_i - lam (1 + lam sum 1/b_i)^{-1} (sum c_i/b_i)^2;
    the bound 4 mu^2 Gamma dominates sup Q."""
    inv_b = 1.0 / inst.b
    gamma = float(
        np.sum(inst.c**2 * inv_b)
        - inst.lam / (1.0 + inst.lam * np.sum(inv_b)) * np.sum(inst.c * inv_b) ** 2
    )
    return QuadraticBoundResult(gamma=gamma, bound=4.0 * inst.mu**2 * gamma)


def quadratic_max_oracle(inst: QuadraticBoundInstance) -> float:
    """Independent maximization of the concave quadratic.

    Normally solves the stationarity system of Q exactly; falls back to a
    dense grid search on [-10, 10]^m if the quadratic form is near-singular.
    """
    m = inst.b.shape[0]
    if m == 0:
        return 0.0
    if np.min(inst.b) < 1e-8:
        pts_per_dim = 41 if m <= 3 else 9
        axes = [np.linspace(-10.0, 10.0, pts_per_dim)] * m
        grids = np.meshgrid(*axes, indexing="ij")
        x = np.stack([g.ravel() for g in grids], axis=-1)
        s = x.sum(axis=1)
        q = -(x * x) @ inst.b - inst.lam * s * s + 4.0 * inst.mu * (x @ inst.c)
        return float(np.max(q))
    a = np.diag(inst.b) + inst.lam * np.ones((m, m))
    x_star = np.linalg.solve(2.0 * a, 4.0 * inst.mu * inst.c)
    return inst.q(x_star)


# ---------------------------------------------------------------------------
# sixth-order finite differences on closed-form suppliers
# ---------------------------------------------------------------------------

_FD_OFFSETS = np.array([-3, -2, -1, 0, 1, 2, 3], dtype=float)
_FD1_W = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_FD2_W = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0


def fd6_first(values: np.ndarray, h: float):
    return np.tensordot(_FD1_W, values, axes=(0, 0)) / h


def fd6_second(values: np.ndarray, h: float):
    return np.tensordot(_FD2_W, values, axes=(0, 0)) / (h * h)


def _richardson(coarse, fine):
    """One halving step for an O(h^6) formula: error drops to O(h^8)."""
    return (64.0 * fine - coarse) / 63.0


def _default_step(point: np.ndarray) -> float:
    return 1e-2 * max(1.0, float(np.linalg.norm(point)))


def _axis_lines(sample, h: float, n: int):
    """For each axis in turn, sample(off * h * e_axis) at the seven stencil offsets."""
    eye = np.eye(n)
    for axis in range(n):
        yield [sample(off * h * eye[axis]) for off in _FD_OFFSETS]


def _extrapolated(derivatives, point: np.ndarray, fd_step: float | None) -> tuple:
    """derivatives(h), a tuple of arrays, at fd_step; without one, Richardson
    over the default step and its half."""
    if fd_step is not None:
        return derivatives(float(fd_step))
    h = _default_step(point)
    return tuple(_richardson(c, f) for c, f in zip(derivatives(h), derivatives(h / 2.0)))


def _supplier_jet(supplier, point: np.ndarray, where: str) -> Jet:
    """Order-2 jet of a closed-form supplier, with |grad u| above the floor."""
    jet = supplier.jet(point, order=2)
    if jet.grad_norm < GRAD_FLOOR:
        raise GradientTooSmall(f"gradient below floor at {where}")
    return jet


def _rotated_sampler(supplier, point: np.ndarray, rot: np.ndarray):
    """y -> (a, |grad u|^2) at point + rot^T y, a in the rotated frame."""

    def sample(y: np.ndarray) -> tuple[np.ndarray, float]:
        j = rotate_jet(supplier.jet(point + rot.T @ y, order=2), rot)
        return curvature_entries_float(j), float(j.grad @ j.grad)

    return sample


def _phi(spec: TestFunctionSpec, a: np.ndarray, t: float) -> float:
    """phi = rho(t) + log det(a)."""
    det = sym_det(a)
    if det <= 0.0:
        raise NonpositiveCurvature("det(a) <= 0 while forming phi")
    return float(spec.rho(t) + math.log(det))


# ---------------------------------------------------------------------------
# jets of phi = rho(|grad u|^2) + log det(a)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiJet:
    """Value, gradient and (symmetric) Hessian of phi at one point."""

    phi: float
    grad_phi: np.ndarray
    hess_phi: np.ndarray

    def __post_init__(self):
        asym = float(np.max(np.abs(self.hess_phi - self.hess_phi.T)))
        if asym > 1e-12 * (1.0 + float(np.max(np.abs(self.hess_phi)))):
            raise ValueError(f"hess_phi asymmetric by {asym:.3e}")


def phi_jet_fd(
    supplier,
    point,
    spec: TestFunctionSpec,
    fd_step: float | None = None,
) -> PhiJet:
    """Jet of phi on a closed-form supplier, in the frame aligned at the point.

    Diagonal second derivatives use the sixth-order stencil directly; mixed
    ones nest two first-derivative stencils (still sixth order).  The result
    is symmetrized from its one-sided evaluations, which agree to rounding.
    """
    point = np.asarray(point, dtype=float)
    jet0 = _supplier_jet(supplier, point, "the phi-jet point")
    n = jet0.dim
    sample = _rotated_sampler(supplier, point, align_frame(jet0).rotation)

    def phi_at(y: np.ndarray) -> float:
        return _phi(spec, *sample(y))

    h = fd_step if fd_step is not None else _default_step(point)
    lines = [np.array(line) for line in _axis_lines(phi_at, h, n)]
    grad_phi = np.array([fd6_first(vals, h) for vals in lines])
    hess_phi = np.diag([fd6_second(vals, h) for vals in lines])
    eye = np.eye(n)
    for a_ax in range(n):
        for b_ax in range(a_ax + 1, n):
            inner = np.array(
                [
                    fd6_first(
                        np.array(
                            [
                                phi_at(oa * h * eye[a_ax] + ob * h * eye[b_ax])
                                for ob in _FD_OFFSETS
                            ]
                        ),
                        h,
                    )
                    for oa in _FD_OFFSETS
                ]
            )
            val = fd6_first(inner, h)
            hess_phi[a_ax, b_ax] = hess_phi[b_ax, a_ax] = val
    phi0 = float(lines[0][3])
    return PhiJet(phi=phi0, grad_phi=grad_phi, hess_phi=hess_phi)


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


def _diagonalizing_rotation(jet: Jet) -> tuple[np.ndarray, Jet]:
    """Rotation aligning the gradient and diagonalizing the tangential Hessian."""
    frame = align_frame(jet)
    n = jet.dim
    ht = frame.aligned_jet.hess[: n - 1, : n - 1]
    _, vecs = np.linalg.eigh((ht + ht.T) / 2.0)
    r2 = np.eye(n)
    r2[: n - 1, : n - 1] = vecs.T
    rot = r2 @ frame.rotation
    return rot, rotate_jet(jet, rot)


def minimal_master_identity_residual(
    supplier,
    point,
    theta: float,
    fd_step: float | None = None,
) -> float:
    """|LHS - RHS| of the second-order identity for F^{ab} phi_ab on a minimal jet.

    LHS is sum_a F^{aa} phi_aa (F is diagonal in the normalized frame) and RHS
    is the expanded right-hand side in terms of a_ij, its first derivatives,
    u_ni, sigma1 and grad phi, with rho(t) = theta (log t - log(1+t)).
    Derivatives of the a and phi fields are sixth-order central differences on
    the supplier; when fd_step is not given, the default 1e-2 * length-scale
    step is combined with one halving via Richardson extrapolation.
    """
    point = np.asarray(point, dtype=float)
    spec = TestFunctionSpec.minimal_theta(theta)
    jet0 = _supplier_jet(supplier, point, "the master-identity point")
    _require_minimal(jet0)

    n = jet0.dim
    rot, aligned0 = _diagonalizing_rotation(jet0)
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
    sample = _rotated_sampler(supplier, point, rot)

    def derivatives(h: float):
        phi1, phi2, a_der = [], [], []
        for line in _axis_lines(sample, h, n):
            phi_vals = np.array([_phi(spec, a, t) for a, t in line])
            phi1.append(fd6_first(phi_vals, h))
            phi2.append(fd6_second(phi_vals, h))
            a_der.append(fd6_first(np.array([a for a, _ in line]), h))
        return np.array(phi1), np.array(phi2), np.array(a_der)

    phi1, phi2, a_der = _extrapolated(derivatives, point, fd_step)

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
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Laplace-Beltrami harmonicity of psi on 2D minimal graphs (closed form)
# ---------------------------------------------------------------------------


def lb_psi_residual_2d(
    supplier,
    points,
    theta: float = -0.5,
    fd_step: float | None = None,
) -> float:
    """max |sum F^{ab} psi_ab| over sample points, psi = (t/(1+t))^theta * k.

    Every sample point must carry a minimal jet (NotAMinimalJet otherwise):
    off minimal graphs the residual proves nothing.  Works in the frame
    aligned at each sample point so that F is diagonal; the level-curve
    curvature k is evaluated chart-free at the stencil nodes with a fixed
    global sign so the psi field stays smooth.
    """
    spec = TestFunctionSpec.minimal_theta(theta)
    points = [np.asarray(p, dtype=float) for p in np.atleast_2d(points)]
    jet_first = supplier.jet(points[0], order=2)
    k0 = level_curve_curvature_2d(jet_first.grad[None, :], jet_first.hess[None, :, :])[0]
    if k0 == 0.0:
        raise NonpositiveCurvature("level curve is flat at the first sample point")
    sign = math.copysign(1.0, k0)

    def psi_at(x: np.ndarray) -> float:
        j = supplier.jet(x, order=2)
        k = sign * level_curve_curvature_2d(j.grad[None, :], j.hess[None, :, :])[0]
        if k <= 0.0:
            raise NonpositiveCurvature("level curve lost convexity inside the stencil")
        t = float(j.grad @ j.grad)
        return float(spec.weight(t) * k)

    worst = 0.0
    for p in points:
        jet0 = _supplier_jet(supplier, p, "a psi-harmonicity point")
        _require_minimal(jet0)
        frame = align_frame(jet0)
        rot = frame.rotation
        un = frame.aligned_jet.grad[-1]
        f_diag = np.array([1.0 + un * un, 1.0])

        def second_derivs(h: float) -> tuple[np.ndarray]:
            lines = _axis_lines(lambda y: psi_at(p + rot.T @ y), h, 2)
            return (np.array([fd6_second(np.array(vals), h) for vals in lines]),)

        (d2,) = _extrapolated(second_derivs, p, fd_step)
        worst = max(worst, abs(float(f_diag @ d2)))
    return worst
