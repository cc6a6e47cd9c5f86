"""Independent references that only the tests read.

None of these is on a library path: the distance cone is a non-minimal field
with spherical level sets, the graph chart of the curvature matrix is a second
way to the principal curvatures, ``weighted_curvature`` writes psi = weight K
out by hand, and ``curvature_derivatives`` reads a_ij,k off one seeding of
the identity engine's duals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from levelcurv.errors import GradientTooSmall, OutOfDomain
from levelcurv.fields import radial_jet
from levelcurv.geometry import Jet, TestFunctionSpec, _symmetrize
from levelcurv.identities import _matrix, _seeded


@dataclass(frozen=True)
class SphereDistanceField:
    """u(x) = sign * |x - center|: level sets are concentric spheres."""

    dim: int
    sign: float = -1.0
    center: tuple = ()

    def jet(self, x, order: int = 3) -> Jet:
        x = np.asarray(x, dtype=float)
        y = x - np.asarray(self.center if self.center else np.zeros(self.dim))
        r = float(np.linalg.norm(y))
        if r == 0.0:
            raise OutOfDomain("radial jets are singular at the origin")
        # u = sign sqrt(2s), so G' = sign/r, G'' = -sign/r^3, G''' = 3 sign/r^5, ...
        g = [self.sign / r, -self.sign / r**3, 3.0 * self.sign / r**5, -15.0 * self.sign / r**7]
        return radial_jet(y, g[:order])

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        center = np.asarray(self.center if self.center else np.zeros(self.dim))
        return self.sign * float(np.linalg.norm(x - center))


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
    return _symmetrize(a, 2)


def weighted_curvature(spec: TestFunctionSpec, grad_norm_sq, gauss):
    """psi = weight(|grad u|^2) * K.  Accepts scalars or arrays."""
    t = np.asarray(grad_norm_sq, dtype=float)
    if np.any(t <= 0.0):
        raise GradientTooSmall("weighted curvature needs |grad u|^2 > 0")
    out = spec.weight(t) * np.asarray(gauss, dtype=float)
    return float(out) if out.ndim == 0 else out


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
