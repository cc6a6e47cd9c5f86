"""Exact multivariate polynomial fields.

PolyField is the ground truth for the pointwise identity checks: its
derivatives of any order are again polynomials with algebraically exact
coefficients, so identity residuals measure only the identity, never the
differentiation.
"""

from __future__ import annotations

import itertools
import math
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


# the nondegeneracy thresholds of a random test jet at the origin
MIN_GRAD = 0.1
MIN_DET = 1e-4


def _nondegenerate(jet: Jet) -> np.ndarray:
    """|grad| >= ``MIN_GRAD`` and the pre-orientation curvature matrix has
    |det| >= ``MIN_DET``, elementwise over a batch of jets."""
    n = jet.dim
    grad = jet.grad.reshape(-1, n)
    hess = jet.hess.reshape(-1, n, n)
    ok = np.asarray(jet.grad_norm >= MIN_GRAD).reshape(-1)
    aj = align_frame(Jet(grad[ok], hess[ok])).aligned_jet
    a_pre = -aj.hess[:, : n - 1, : n - 1] / aj.grad[:, -1, None, None]
    ok[ok] = np.abs(np.linalg.det(a_pre)) >= MIN_DET
    return ok.reshape(jet.grad.shape[:-1])


def _origin_jets(coeffs: np.ndarray, n: int) -> Jet:
    """Order-3 jets at the origin of the fields with these coefficient rows.

    A derivative at the origin is its monomial's coefficient times the
    multi-index factorial, bitwise what PolyField.jet(origin, 3) evaluates.
    """
    column = {alpha: col for col, alpha in enumerate(_multi_indices(n, MAX_DEGREE))}

    def derivative(axes: tuple[int, ...]) -> np.ndarray:
        alpha = tuple(axes.count(axis) for axis in range(n))
        return coeffs[:, column[alpha]] * math.prod(map(math.factorial, alpha))

    grad = np.stack([derivative((i,)) for i in range(n)], axis=-1)
    hess = np.empty((len(coeffs), n, n))
    for i, j in itertools.product(range(n), repeat=2):
        hess[:, i, j] = derivative((i, j))
    third = np.empty((len(coeffs), n, n, n))
    for i, j, k in itertools.product(range(n), repeat=3):
        third[:, i, j, k] = derivative((i, j, k))
    return Jet(grad, hess, third)


RANDOM_JET_DIMS = (2, 3, 4)


@dataclass(frozen=True)
class RandomJets:
    """Seeded random fields: coefficient rows and their order-3 origin jets."""

    n: int
    coeffs: np.ndarray  # (fields, terms), terms in _multi_indices order
    jets: Jet  # batch of one order-3 jet at the origin per field

    def field(self, index: int) -> PolyField:
        return PolyField(self.n, dict(zip(_multi_indices(self.n, MAX_DEGREE), self.coeffs[index])))


def random_test_jets(seeds, n: int) -> RandomJets:
    """Deterministic random degree-4 fields, one per seed, nondegenerate at the origin.

    Each seed owns a ``default_rng(seed)`` stream.  Coefficients are uniform
    in [-1, 1]; a field's draw is repeated from its own stream until, at the
    origin, it passes ``_nondegenerate``, so a field does not depend on the
    batch it is drawn in.  Raises ExhaustedResampling when a field needs more
    than 1000 draws.
    """
    if n not in RANDOM_JET_DIMS:
        raise ValueError(f"random test jets support n in {RANDOM_JET_DIMS}, got {n}")
    seeds = list(seeds)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    coeffs = np.empty((len(seeds), len(_multi_indices(n, MAX_DEGREE))))
    redraw = np.arange(len(seeds))
    for _ in range(1000):
        for b in redraw:
            coeffs[b] = rngs[b].uniform(-1.0, 1.0, size=coeffs.shape[1])
        jets = _origin_jets(coeffs[redraw], n)
        redraw = redraw[~_nondegenerate(Jet(jets.grad, jets.hess))]
        if redraw.size == 0:
            return RandomJets(n, coeffs, _origin_jets(coeffs, n))
    raise ExhaustedResampling(
        f"no nondegenerate field after 1000 draws (seed={seeds[redraw[0]]}, n={n})"
    )

