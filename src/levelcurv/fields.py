"""Closed-form scalar fields with exact jets.

These are the independent references the solvers and identity checks are
measured against: radial minimal graphs (catenoid family) and the
Scherk-type minimal graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain
from .geometry import Jet, make_jet


def radial_jet(x: np.ndarray, g) -> Jet:
    """Jet of u(x) = G(|x|^2/2) at x from G', G'', ... at s = |x|^2/2, one per order.

    u_i = G' x_i and u_ij = G'' x_i x_j + G' d_ij (d the identity); u_ijk is
    the symmetric part of G''' x x x + 3 G'' d x, and u_ijkl that of
    G'''' x x x x + 6 G''' d x x + 3 G'' d d.
    """
    x = np.asarray(x, dtype=float)
    eye = np.eye(x.shape[0])
    xx = np.outer(x, x)
    third = fourth = None
    if len(g) >= 3:
        third = g[2] * np.multiply.outer(xx, x) + 3.0 * g[1] * np.multiply.outer(eye, x)
    if len(g) >= 4:
        fourth = (g[3] * np.multiply.outer(xx, xx) + 6.0 * g[2] * np.multiply.outer(eye, xx)
                  + 3.0 * g[1] * np.multiply.outer(eye, eye))
    return make_jet(g[0] * x, g[1] * xx + g[0] * eye, third, fourth)


@dataclass(frozen=True)
class RadialMinimalField:
    """Radial solution of the minimal surface equation: u'(r) = c / sqrt(r^(2(n-1)) - c^2).

    flux c < 0 gives a field decreasing outward, whose level spheres are
    convex with respect to grad u (the orientation the maximum-principle
    identities are written in); |flux| = 1 is the catenoid normalization.
    ``u_prime`` and ``u_second`` take a radius or an array of radii.
    """

    n: int
    flux: float = -1.0

    def _d(self, r):
        m = 2 * (self.n - 1)
        d = r**m - self.flux**2
        if np.any(d <= 0.0):
            raise OutOfDomain(
                f"radial minimal profile needs r^{m} > c^2, got r = {float(np.min(r)):g}")
        return d

    def u_prime(self, r):
        return self.flux / np.sqrt(self._d(r))

    def u_second(self, r):
        m = 2 * (self.n - 1)
        return -(self.flux * m / 2.0) * r ** (m - 1) * self._d(r) ** -1.5

    def jet(self, x, order: int = 3) -> Jet:
        """Jet of u = G(|x|^2/2), where G' = c D^{-1/2} with D(s) = (2s)^n - 2 c^2 s."""
        x = np.asarray(x, dtype=float)
        n, c = self.n, self.flux
        q = float(x @ x)  # 2s
        d = q * self._d(math.sqrt(q))
        d1 = 2.0 * n * q ** (n - 1) - 2.0 * c * c
        d2 = 4.0 * n * (n - 1) * q ** (n - 2)
        d3 = 8.0 * n * (n - 1) * (n - 2) * q ** (n - 3)
        g = [c * d**-0.5,
             -0.5 * c * d**-1.5 * d1,
             c * (0.75 * d**-2.5 * d1 * d1 - 0.5 * d**-1.5 * d2),
             c * (-1.875 * d**-3.5 * d1**3 + 2.25 * d**-2.5 * d1 * d2 - 0.5 * d**-1.5 * d3)]
        return radial_jet(x, g[:order])


@dataclass(frozen=True)
class ScherkField:
    """u(x, y) = log cos x - log cos y on |x|, |y| < pi/2; solves the minimal
    surface equation identically."""

    def jet(self, x, order: int = 3) -> Jet:
        x = np.asarray(x, dtype=float)
        x1, x2 = float(x[0]), float(x[1])
        if abs(x1) >= math.pi / 2 or abs(x2) >= math.pi / 2:
            raise OutOfDomain("Scherk field lives on |x_i| < pi/2")
        t1, t2 = math.tan(x1), math.tan(x2)
        s1, s2 = 1.0 + t1 * t1, 1.0 + t2 * t2  # sec^2
        grad = np.array([-t1, t2])
        hess = np.array([[-s1, 0.0], [0.0, s2]])
        third = fourth = None
        if order >= 3:
            third = np.zeros((2, 2, 2))
            third[0, 0, 0] = -2.0 * s1 * t1
            third[1, 1, 1] = 2.0 * s2 * t2
        if order >= 4:
            fourth = np.zeros((2, 2, 2, 2))
            fourth[0, 0, 0, 0] = -2.0 * s1 * (s1 + 2.0 * t1 * t1)
            fourth[1, 1, 1, 1] = 2.0 * s2 * (s2 + 2.0 * t2 * t2)
        return make_jet(grad, hess, third, fourth)


def catenoid_value(r: float, anchor: float | None = None) -> float:
    """u(r) = arccosh(r), the 2D catenoid profile, less arccosh(anchor) when an anchor is given."""
    return math.acosh(r) - (math.acosh(anchor) if anchor is not None else 0.0)
