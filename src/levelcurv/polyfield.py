"""Exact multivariate polynomial fields.

PolyField is the ground truth for the pointwise identity checks: its
derivatives of any order are again polynomials with algebraically exact
coefficients, so identity residuals measure only the identity, never the
differentiation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ExhaustedResampling
from .geometry import Jet, align_frame

MAX_DEGREE = 4


def _multi_indices(dim: int, max_degree: int) -> list[tuple[int, ...]]:
    out = []
    for total in range(max_degree + 1):
        for comb in itertools.combinations_with_replacement(range(dim), total):
            alpha = [0] * dim
            for axis in comb:
                alpha[axis] += 1
            out.append(tuple(alpha))
    return sorted(set(out))


@dataclass(frozen=True)
class PolyField:
    """Polynomial in ``dim`` variables, degree <= 4, sparse coefficient map."""

    dim: int
    coeffs: dict

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("PolyField needs dim >= 2")
        for alpha, c in self.coeffs.items():
            if len(alpha) != self.dim:
                raise ValueError(f"multi-index {alpha} does not match dim {self.dim}")
            if sum(alpha) > MAX_DEGREE:
                raise ValueError(f"degree {sum(alpha)} exceeds {MAX_DEGREE}")
            if not np.isfinite(c):
                raise ValueError("coefficients must be finite")

    @property
    def degree(self) -> int:
        return max((sum(a) for a, c in self.coeffs.items() if c != 0.0), default=0)

    def __neg__(self) -> "PolyField":
        return PolyField(self.dim, {a: -c for a, c in self.coeffs.items()})

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=float)
        total = 0.0
        for alpha, c in self.coeffs.items():
            term = c
            for axis, p in enumerate(alpha):
                if p:
                    term *= x[axis] ** p
            total += term
        return float(total)

    def derivative(self, axis: int) -> "PolyField":
        out: dict = {}
        for alpha, c in self.coeffs.items():
            p = alpha[axis]
            if p == 0:
                continue
            beta = list(alpha)
            beta[axis] = p - 1
            beta = tuple(beta)
            out[beta] = out.get(beta, 0.0) + c * p
        return PolyField(self.dim, out)

    def partial(self, order: tuple[int, ...]) -> "PolyField":
        f = self
        for axis, times in enumerate(order):
            for _ in range(times):
                f = f.derivative(axis)
        return f

    def jet(self, point, order: int = 3) -> Jet:
        """Exact jet at a point; hess/third are exactly symmetric by construction."""
        n = self.dim
        point = np.asarray(point, dtype=float)
        grads = [self.derivative(ax) for ax in range(n)]
        grad = np.array([g.evaluate(point) for g in grads])
        hess = np.zeros((n, n))
        hess_fields = {}
        for i in range(n):
            for j in range(i, n):
                fij = grads[i].derivative(j)
                hess_fields[(i, j)] = fij
                v = fij.evaluate(point)
                hess[i, j] = v
                hess[j, i] = v
        third = None
        if order >= 3:
            third = np.zeros((n, n, n))
            for i in range(n):
                for j in range(i, n):
                    for k in range(j, n):
                        v = hess_fields[(i, j)].derivative(k).evaluate(point)
                        for perm in set(itertools.permutations((i, j, k))):
                            third[perm] = v
        return Jet(grad, hess, third)


def _nondegenerate(jet: Jet, min_grad: float, min_det: float) -> bool:
    """|grad| >= min_grad and the pre-orientation curvature matrix has |det| >= min_det."""
    if jet.grad_norm < min_grad:
        return False
    n = jet.dim
    aj = align_frame(jet).aligned_jet
    a_pre = -aj.hess[: n - 1, : n - 1] / aj.grad[-1]
    return abs(float(np.linalg.det(a_pre))) >= min_det


RANDOM_JET_DIMS = (2, 3, 4)


def random_test_jet(seed: int, n: int, min_grad: float = 0.1, min_det: float = 1e-4) -> PolyField:
    """Deterministic random degree-4 field, nondegenerate at the origin.

    Coefficients are uniform in [-1, 1]; the draw is resampled until, at the
    origin, |grad| >= 0.1 and the pre-orientation curvature matrix has
    |det| >= 1e-4.  Raises ExhaustedResampling after 1000 attempts.
    """
    if n not in RANDOM_JET_DIMS:
        raise ValueError(f"random test jets support n in {RANDOM_JET_DIMS}, got {n}")
    rng = np.random.default_rng(seed)
    indices = _multi_indices(n, MAX_DEGREE)
    origin = np.zeros(n)
    for _ in range(1000):
        values = rng.uniform(-1.0, 1.0, size=len(indices))
        field = PolyField(n, dict(zip(indices, values)))
        if _nondegenerate(field.jet(origin, order=2), min_grad, min_det):
            return field
    raise ExhaustedResampling(f"no nondegenerate field after 1000 draws (seed={seed}, n={n})")


def quadratic_field(dim: int, grad, hess) -> PolyField:
    """u(x) = grad . x + x^T hess x / 2 as an exact PolyField."""
    grad = np.asarray(grad, dtype=float)
    hess = np.asarray(hess, dtype=float)
    coeffs: dict = {}
    for i in range(dim):
        alpha = [0] * dim
        alpha[i] = 1
        coeffs[tuple(alpha)] = float(grad[i])
    for i in range(dim):
        for j in range(i, dim):
            alpha = [0] * dim
            alpha[i] += 1
            alpha[j] += 1
            coeffs[tuple(alpha)] = float(hess[i, j]) if i != j else float(hess[i, i]) / 2.0
    return PolyField(dim, coeffs)
